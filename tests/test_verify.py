"""The embedded verification corpora all pass and stay deterministic."""

import json
from pathlib import Path

import pytest

from bqec.verify import (
    DISCREPANCY,
    FAIL,
    TABLES,
    run,
    verify_examples,
)


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("table", TABLES)
def test_corpus_has_no_failures(table):
    reports = run(table)
    assert reports
    failures = [report for report in reports if report.status == FAIL]
    assert failures == []
    # the lines `bqec verify <table>` prints, pinned byte for byte
    lines = [
        json.dumps({"item": report.item, "status": report.status, "detail": report.detail})
        for report in reports
    ]
    assert lines == (DATA / f"verify_{table}.jsonl").read_text(encoding="utf-8").splitlines()


def test_documented_discrepancies_present():
    reports = verify_examples()
    flagged = {report.item for report in reports if report.status == DISCREPANCY}
    assert flagged == {
        "discrepancy/a=21:5/order-4-point",
        "discrepancy/a=21:5/unrealizable-s",
        "discrepancy/auxiliary/generator",
        "discrepancy/companion-map",
        "discrepancy/rank-2-pair/coefficient",
    }


def test_discrepancies_carry_both_values():
    reports = {report.item: report for report in verify_examples()}
    order4 = reports["discrepancy/a=21:5/order-4-point"]
    assert "(1764, 451584/625)" in order4.detail and "(1764/25, 451584/625)" in order4.detail
    generator = reports["discrepancy/auxiliary/generator"]
    assert "(-38, 128)" in generator.detail and "125" in generator.detail
    unrealizable = reports["discrepancy/a=21:5/unrealizable-s"]
    assert "367/135" in unrealizable.detail and "11/3" in unrealizable.detail


def test_rank_claims_not_reproved():
    for table in ("table4", "table5"):
        for report in run(table):
            if report.item.startswith(("table4/r=", "table5/subfamily")):
                assert "rank claim not re-proved" in report.detail


def test_determinism():
    assert verify_examples() == verify_examples()
    assert run("table5") == run("table5")


def test_unknown_table_rejected():
    with pytest.raises(ValueError):
        run("table9")
