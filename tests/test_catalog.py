"""Catalog integrity: names, diagrams, restricted profiles, classification."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from conftest import fresh_python

from satake.realforms import (
    ClassificationRow,
    ClassificationTable,
    catalog,
    classification_to_json,
    classify,
    lookup,
    normalize_name,
)
from satake.diagram import validate
from satake.errors import UnknownRealFormError
from satake.involution import restricted_roots


class TestCatalogBuild:
    def test_entry_count_at_default_bound(self, full_catalog):
        assert len(full_catalog) == 205

    def test_every_diagram_validates(self, full_catalog):
        bad = [rec.name for rec in full_catalog if not validate(rec.diagram).ok]
        assert bad == []

    def test_names_unique_after_normalization(self, full_catalog):
        keys = [normalize_name(n) for rec in full_catalog for n in rec.names]
        assert len(keys) == len(set(keys))

    def test_rank_bound_filters(self):
        small = catalog(2)
        names = {rec.name for rec in small}
        assert "sl(2,R)" in names and "so(2,3)" in names and "g2(2)" in names
        assert all(t.rank <= 2 for rec in small for t in rec.diagram.types)
        with pytest.raises(UnknownRealFormError):
            lookup("f4(4)", rank_bound=2)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            catalog(0)

    @pytest.mark.parametrize("bound", [True, 2.9, 8.0])
    def test_non_int_bound(self, bound):
        lookup("su(2)", 1)  # the lookup index of 1 must not answer for True
        for call in (catalog, classify, lambda b: lookup("su(2)", b)):
            with pytest.raises(ValueError, match="integer between 1 and"):
                call(bound)

    def test_caching_returns_same_tuple(self):
        assert catalog(8) is catalog(8)

    def test_diagrams_parse_on_first_access(self):
        # A fresh interpreter, so the module-level caches start cold.
        code = (
            "from satake import diagram\n"
            "from satake.realforms import catalog, lookup\n"
            "catalog()\n"
            "parsed = lambda: diagram._parse_memo.cache_info().currsize\n"
            "print(parsed())\n"
            "lookup('e8(-24)').diagram\n"
            "print(parsed())\n"
        )
        proc = fresh_python(code, check=True)
        assert proc.stdout.split() == ["0", "1"]

    def test_records_pin_no_diagram(self):
        # A fresh interpreter; bound 16 has 597 texts, more than the memo keeps.
        code = (
            "from satake import catalog, classify, diagram, lookup, parse_diagram\n"
            "classify(16)\n"
            "print(sum('diagram' in vars(rec) for rec in catalog(16)))\n"
            "print(diagram._parse_memo.cache_info().currsize)\n"
            "print(lookup('e8(-24)').diagram is parse_diagram('E8 black=2,3,4,5 arrows='))\n"
        )
        proc = fresh_python(code, check=True)
        pinned, memo_size, shared = proc.stdout.split()
        assert pinned == "0"
        assert int(memo_size) <= 256
        assert shared == "True"

    def test_repeated_name_raises(self, monkeypatch):
        import satake.realforms as realforms

        builder = realforms._exceptional_entries
        repeat = (("SU(2)",), "G2 black=1 arrows=")
        monkeypatch.setattr(realforms, "_exceptional_entries", lambda b: builder(b) + [repeat])
        with pytest.raises(RuntimeError, match="SU\\(2\\)") as exc:
            realforms._catalog_cached.__wrapped__(8)
        assert "'A1 black=1 arrows='" in str(exc.value)
        assert "'G2 black=1 arrows='" in str(exc.value)


class TestLookup:
    @pytest.mark.parametrize("name", [5, None, b"su(2,1)"])
    def test_a_name_that_is_not_a_str_is_a_type_error(self, name):
        with pytest.raises(TypeError, match="real form name"):
            lookup(name)

    def test_every_name_resolves_to_its_record(self, full_catalog):
        for rec in full_catalog:
            for name in rec.names:
                assert lookup(name) is rec

    @pytest.mark.parametrize(
        "variant,primary",
        [
            ("SU(2, 1)", "su(2,1)"),
            (" so*(8) ", "so*(8)"),
            ("SL(2,r)", "sl(2,R)"),
            ("sp(1)", "su(2)"),
            ("EII", "e6(2)"),
            ("e7(-133)", "e7"),
            ("u*(4,H)", "so*(8)"),
            ("sl(2,C) as real", "sl(2,C)"),
            ("so(6,2)", "so(2,6)"),
        ],
    )
    def test_synonyms_and_normalization(self, variant, primary):
        assert lookup(variant).name == primary

    def test_parentheses_are_significant(self):
        with pytest.raises(UnknownRealFormError):
            lookup("su21")

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownRealFormError) as exc:
            lookup("su(19)")
        assert exc.value.suggestions
        assert exc.value.name == "su(19)"

    def test_suggestions_are_catalog_names(self):
        # matched on normalised keys, reported as the catalog writes them
        with pytest.raises(UnknownRealFormError) as exc:
            lookup("sl(3,Q)")
        assert exc.value.suggestions[:3] == ("sl(3,R)", "sl(3,H)", "sl(3,C)")
        assert "close matches: sl(3,R), sl(3,H), sl(3,C)," in str(exc.value)
        with pytest.raises(UnknownRealFormError) as exc:
            lookup("eii(x)")
        assert "EII" in exc.value.suggestions

    def test_doubled_record_shape(self):
        rec = lookup("sl(2,C) as real")
        assert rec.text == "A1xA1 black= arrows=1:2"
        assert [str(t) for t in rec.diagram.types] == ["A1", "A1"]
        assert rec.diagram.is_doubled


# Frozen profiles: (restricted type, {multiplicity: count of positive
# restricted roots with it}).  Entries cross-checked by dimension counts.
RESTRICTED_PROFILES = {
    "sl(2,R)": ("A1", {1: 1}),
    "su(2,1)": ("BC1", {2: 1, 1: 1}),
    "su(2,2)": ("B2", {2: 2, 1: 2}),
    "su(3,1)": ("BC1", {4: 1, 1: 1}),
    "su*(4)": ("A1", {4: 1}),
    "su*(6)": ("A2", {4: 3}),
    "so(2,3)": ("B2", {1: 4}),
    "so(1,7)": ("A1", {6: 1}),
    "so(2,6)": ("B2", {1: 2, 4: 2}),
    "so*(8)": ("B2", {1: 2, 4: 2}),
    "so*(10)": ("BC2", {4: 4, 1: 2}),
    "sp(4,R)": ("B2", {1: 4}),
    "sp(1,2)": ("BC1", {4: 1, 3: 1}),
    "sp(2,2)": ("B2", {3: 2, 4: 2}),
    "e6(6)": ("E6", {1: 36}),
    "e6(2)": ("F4", {1: 12, 2: 12}),
    "e6(-14)": ("BC2", {6: 2, 8: 2, 1: 2}),
    "e6(-26)": ("A2", {8: 3}),
    "e7(7)": ("E7", {1: 63}),
    "e7(-5)": ("F4", {1: 12, 4: 12}),
    "e7(-25)": ("C3", {1: 3, 8: 6}),
    "e8(8)": ("E8", {1: 120}),
    "e8(-24)": ("F4", {1: 12, 8: 12}),
    "f4(4)": ("F4", {1: 24}),
    "f4(-20)": ("BC1", {8: 1, 7: 1}),
    "g2(2)": ("G2", {1: 6}),
    "sl(2,C)": ("A1", {2: 1}),
    "sp(4,C)": ("B2", {2: 4}),
    "su(4)": (None, {}),
    "so(9)": (None, {}),
}


@pytest.mark.parametrize("name", sorted(RESTRICTED_PROFILES))
def test_restricted_profiles(name):
    label, hist = RESTRICTED_PROFILES[name]
    rr = restricted_roots(lookup(name).diagram)
    assert rr.label == label
    assert dict(Counter(rr.multiplicity.values())) == hist


class TestClassification:
    def test_row_shape(self, full_catalog):
        table = classify()
        assert table.rank_bound == 8
        assert len(table.rows) == len(full_catalog)
        by_name = {row.name: row for row in table.rows}
        assert by_name["sl(3,R)"].is_identity
        assert by_name["sl(3,R)"].automorphism == "identity"
        assert by_name["su(3,1)"].automorphism == "(1 3)"
        assert not by_name["su(3,1)"].is_identity
        assert by_name["so(2,6)"].is_identity
        assert by_name["e6(2)"].automorphism == "(1 6)(3 5)"

    def test_doubled_rows_never_identity(self, full_catalog):
        table = classify()
        doubled = {rec.name for rec in full_catalog if rec.diagram.is_doubled}
        for row in table.rows:
            if row.name in doubled:
                assert not row.is_identity

    @staticmethod
    def _dumps(table):
        payload = {
            "rank_bound": table.rank_bound,
            "real_forms": [
                {
                    "name": row.name,
                    "diagram": row.diagram,
                    "automorphism": row.automorphism,
                    "is_identity": row.is_identity,
                }
                for row in table.rows
            ],
        }
        return json.dumps(payload, indent=2)

    @pytest.mark.parametrize("bound", range(1, 9))
    def test_json_text_is_json_dumps(self, bound):
        table = classify(bound)
        assert classification_to_json(table) == self._dumps(table)

    @pytest.mark.parametrize(
        "rows",
        [
            (),
            (
                ClassificationRow('a "quoted" name', "back\\slash\tand tab", "(1 2)", False),
                ClassificationRow("so\u2217(8) \u00e9\u00e8", "\U0001d53c\n", "identity", True),
            ),
            # a row holding a list is indented as json.dumps indents it
            [ClassificationRow("sl(2,R)", "A1 black= arrows=", ["identity", ("1",)], True)],
        ],
    )
    def test_json_text_of_a_hand_built_table(self, rows):
        table = ClassificationTable(3, rows)
        assert classification_to_json(table) == self._dumps(table)

    def test_json_is_deterministic_and_loadable(self):
        a = classification_to_json(classify())
        b = classification_to_json(classify())
        assert a == b
        payload = json.loads(a)
        assert payload["rank_bound"] == 8
        assert len(payload["real_forms"]) == 205
        row = payload["real_forms"][0]
        assert set(row) == {"name", "diagram", "automorphism", "is_identity"}
