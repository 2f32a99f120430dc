"""Start ``python -m repro serve``, optionally with the layer wrappers.

Usage::

    python3 perfbench/serve_launcher.py --src SRC --trace 0|1 --spans FILE -- SERVE_ARGS...

With ``--trace 1`` the span wrappers are installed inside this server
process before it serves, ``repro.api.run``/``audit``/``bound`` mark
the ops, and the spans are written to ``FILE`` once the server has
stopped (on SIGTERM or SIGINT).  With ``--trace 0`` this is exactly
``python -m repro serve SERVE_ARGS``.
"""

import argparse
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    sys.path.insert(0, args.src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro.__main__
    import repro.serve  # noqa: F401 -- loaded before wrapping its bindings

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.install(spans.SERVER_OPS, ops=True)
    try:
        repro.__main__.main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
