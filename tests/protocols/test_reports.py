"""Tests for Report / ProtocolResult containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocols.reports import ProtocolResult, Report


def _result(origins, user_payloads, dummy_payloads=(), protocol="all",
            num_users=None):
    """A result from its columns; ``-1`` origins take ``dummy_payloads``."""
    n = num_users if num_users is not None else len(origins)
    return ProtocolResult(
        protocol=protocol,
        num_users=n,
        rounds=3,
        origins=np.asarray(origins, dtype=np.int64),
        user_payloads=user_payloads,
        delivered_by=np.arange(len(origins)),
        allocation=np.ones(n, dtype=np.int64),
        dummy_payloads=list(dummy_payloads),
        dummy_count=len(dummy_payloads),
    )


class TestReport:
    def test_regular_report(self):
        report = Report(origin=3, payload="x")
        assert not report.is_dummy
        assert report.payload == "x"

    def test_dummy_marker(self):
        assert Report(origin=-1, payload=None).is_dummy

    def test_frozen(self):
        report = Report(origin=0, payload=1)
        with pytest.raises(Exception):
            report.origin = 5  # type: ignore[misc]


class TestProtocolResult:
    def test_real_reports_filters_dummies(self):
        result = _result([0, -1, 1], ["a", "b"], ["d"], num_users=3)
        assert len(result.real_reports) == 2
        assert result.real_reports == [Report(0, "a"), Report(1, "b")]

    def test_payloads_with_and_without_dummies(self):
        result = _result([0, -1], ["a"], ["d"], num_users=2)
        assert result.payloads() == ["a", "d"]
        assert result.payloads(include_dummies=False) == ["a"]

    def test_server_reports_view_in_delivery_order(self):
        result = _result([1, -1, 0, -1], ["a", "b"], ["d0", "d1"])
        assert result.server_reports == [
            Report(1, "b"), Report(-1, "d0"), Report(0, "a"), Report(-1, "d1"),
        ]

    def test_array_column_yields_loop_types(self):
        scalars = _result([2, 0], np.array([10, 11, 12]))
        assert scalars.payloads() == [12, 10]
        assert [type(p) for p in scalars.payloads()] == [int, int]
        rows = _result([1, 0], np.arange(4.0).reshape(2, 2))
        got = rows.payloads()
        assert all(type(row) is np.ndarray for row in got)
        np.testing.assert_array_equal(np.stack(got), [[2.0, 3.0], [0.0, 1.0]])

    def test_conservation_check_all(self):
        result = _result(range(4), list(range(4)))
        assert result.check_conservation()

    def test_conservation_check_fails_on_loss(self):
        result = _result([0], [0, 1, 2], num_users=3)
        assert not result.check_conservation()

    def test_conservation_vacuous_for_single(self):
        result = _result([0], [0, 1, 2], protocol="single", num_users=3)
        assert result.check_conservation()

    def test_adversary_view_fields(self):
        result = _result([1, 0], ["b", "a"], num_users=2)
        view = result.adversary_view()
        np.testing.assert_array_equal(view.origin, [1, 0])
        np.testing.assert_array_equal(view.final_holder, [0, 1])
        assert view.report_payloads == ["a", "b"]
        assert view.num_users == 2

    def test_adversary_linkage_shape_mismatch(self):
        view = _result([0], ["a"], num_users=1).adversary_view()
        with pytest.raises(ValueError):
            view.linkage_accuracy(np.array([0, 1]))
