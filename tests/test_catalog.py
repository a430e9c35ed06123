import pytest

from touchard import (
    ResourceLimits,
    SequenceRecord,
    TABLE3_TERM_TRANSPOSITIONS,
    canonicalize_type,
    catalan,
    golden_table3,
    named_closed_form,
    sequence_dp,
    table2_map,
    verify,
    verify_table3,
)


def by_letters(records):
    return {record.walk_type.letters: record for record in records}


def test_golden_table3_shape():
    records = golden_table3()
    assert len(records) == 25
    letters = [record.walk_type.letters for record in records]
    assert len(set(letters)) == 25
    for record in records:
        assert record.walk_type.letters == "".join(sorted(record.walk_type.letters))
        assert len(record.walk_type.dims) == 3
        assert len(record.terms) >= 9
        assert record.terms[0] == 1
        assert all(isinstance(t, int) and t >= 0 for t in record.terms)


def test_golden_even_only_stars():
    records = by_letters(golden_table3())
    starred = {letters for letters, rec in records.items() if rec.even_only_star}
    assert starred == {"aaa", "aab", "abb", "bbb"}
    # Starred rows print even lengths only; the stored terms interleave
    # zeros so that terms[n] is always the length-n count.
    for letters in starred:
        assert all(t == 0 for t in records[letters].terms[1::2])
        assert all(t > 0 for t in records[letters].terms[0::2])
    assert records["bbb"].terms[2] == 6


def test_golden_oeis_ids():
    records = by_letters(golden_table3())
    assert records["add"].oeis_id == "A000108"
    assert records["bdd"].oeis_id == "A000984"
    assert records["bde"].oeis_id == "A026375"
    assert records["abc"].oeis_id is None
    with_id = {letters for letters, rec in records.items() if rec.oeis_id}
    assert len(with_id) == 13


def test_golden_absolute_value_note():
    records = by_letters(golden_table3())
    flagged = {letters for letters, rec in records.items() if rec.absolute_values_note}
    assert flagged == {"bbc"}


def test_transposed_rows_store_verbatim_digits():
    records = by_letters(golden_table3())
    assert TABLE3_TERM_TRANSPOSITIONS == {"bdd": "bde", "bde": "bdd"}
    # The printed bdd row carries bde's counts and vice versa.
    assert records["bdd"].terms[:6] == (1, 3, 11, 45, 195, 873)
    assert records["bde"].terms[:6] == (1, 2, 6, 20, 70, 252)
    assert sequence_dp(canonicalize_type("bdd"), 5) == [1, 2, 6, 20, 70, 252]
    assert sequence_dp(canonicalize_type("bde"), 5) == [1, 3, 11, 45, 195, 873]


def test_table2_map():
    entries = table2_map()
    assert len(entries) == 15
    ids = {entry.walk_type.letters: entry.oeis_id for entry in entries}
    assert ids["ae"] == "A000108"
    assert ids["ac"] == ids["ce"] == "A001700"
    assert ids["dd"] == "A000079"
    starred = {e.walk_type.letters for e in entries if e.even_only_star}
    assert starred == {"aa", "ab", "bb"}


def test_named_closed_form_selection():
    label, fn = named_closed_form(canonicalize_type("ae"))
    assert label == "catalan(n+1)"
    assert [fn(n) for n in range(5)] == [catalan(n + 1) for n in range(5)]
    label, fn = named_closed_form(canonicalize_type("ee"))
    assert label == "4^n"
    assert fn(3) == 64
    label, fn = named_closed_form(canonicalize_type("dd"))
    assert label == "2^n"
    assert named_closed_form(canonicalize_type("bd")) is None
    assert named_closed_form(canonicalize_type("abc")) is None


def test_verify_clean_type():
    report = verify(canonicalize_type("ae"), 8)
    assert report.ok
    assert len(report.rows) == 9
    assert all(row.status == "agree" for row in report.rows)
    assert all(row.golden is None for row in report.rows)
    assert report.rows[4].oracle == report.rows[4].closed == 42
    assert report.counts() == {"agree": 9, "erratum": 0, "mismatch": 0, "skipped": 0}


def test_verify_report_text_format():
    report = verify(canonicalize_type("ae"), 2)
    text = report.text()
    lines = text.splitlines()
    assert lines[0].startswith("verify: 1 type(s), 3 row(s) checked,")
    assert lines[1] == "type n oracle formula closed golden status"
    assert lines[2] == "ae 0 1 1 1 - agree"
    assert lines[4] == "ae 2 5 5 5 - agree"


def test_verify_ac_emits_claim_note():
    report = verify(canonicalize_type("ac"), 5)
    assert report.ok
    assert all(row.status == "agree" for row in report.rows)
    notes = [note for note in report.notes if note.startswith("ac:")]
    assert len(notes) == 1
    assert "binom(2n+1,n)" in notes[0]
    assert "counts type ce" in notes[0]
    assert "n=1: claimed binom(2n+1,n)=3 vs count=1" in notes[0]


def test_verify_transposed_row_is_erratum_not_mismatch():
    report = verify(canonicalize_type("bdd"), 5)
    assert report.ok
    statuses = [row.status for row in report.rows]
    assert statuses == ["agree"] + ["erratum"] * 5
    assert report.counts()["erratum"] == 5
    # Golden column still shows the verbatim digits.
    assert [row.golden for row in report.rows] == [1, 3, 11, 45, 195, 873]
    assert [row.oracle for row in report.rows] == [1, 2, 6, 20, 70, 252]
    note = "\n".join(report.notes)
    assert "transposed with row bde" in note
    assert "A000984" in note


def test_verify_doctored_golden_is_hard_mismatch():
    records = golden_table3()
    doctored = [
        rec._replace(terms=(1, 0, 999))
        if rec.walk_type.letters == "aaa"
        else rec
        for rec in records
    ]
    report = verify(canonicalize_type("aaa"), 2, records=doctored)
    assert not report.ok
    assert report.rows[2].status.startswith("mismatch(")
    assert "golden=999" in report.rows[2].status
    assert report.counts()["mismatch"] >= 1


def test_verify_guard_skip_is_not_failure():
    limits = ResourceLimits(max_dp_states=5)
    report = verify(canonicalize_type("abc"), 6, limits=limits)
    assert report.ok
    assert all(row.status == "skipped(oracle-guard)" for row in report.rows)
    assert report.counts()["skipped"] == 7
    assert any("oracle skipped" in warning for warning in report.warnings)


def test_verify_rejects_negative():
    with pytest.raises(ValueError):
        verify(canonicalize_type("ae"), -1)


def test_verify_table3_prefix():
    report = verify_table3(2)
    assert report.ok
    assert len(report.rows) == 75
    counts = report.counts()
    assert counts["mismatch"] == 0
    assert counts["skipped"] == 0
    # bdd and bde each disagree verbatim at n = 1 and n = 2.
    assert counts["erratum"] == 4
    assert counts["agree"] == 71


def test_fresh_record_round_trip():
    record = SequenceRecord(
        walk_type=canonicalize_type("ae"),
        terms=(1, 2, 5),
        source="unit-test",
    )
    assert record.oeis_id is None
    assert not record.even_only_star
