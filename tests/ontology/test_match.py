"""Unit tests for the degree-of-match machinery."""

from collections import Counter

import pytest

from repro.ontology import ConceptMatcher, DegreeOfMatch, Ontology, Reasoner
from repro.ontology.match import SIGNATURE_MEMO_CAPACITY

T = "http://t.org/o#"


@pytest.fixture
def matcher():
    onto = Ontology("http://t.org/o")
    onto.add_concept(T + "Record")
    onto.add_concept(T + "StudentInfo", parents=[T + "Record"])
    onto.add_concept(T + "StudentRecord", parents=[T + "Record"])
    onto.add_equivalence(T + "StudentInfo", T + "StudentRecord")
    onto.add_concept(T + "Transcript", parents=[T + "StudentInfo"])
    onto.add_concept(T + "Identifier")
    onto.add_concept(T + "StudentID", parents=[T + "Identifier"])
    onto.add_concept(T + "Unrelated")
    return ConceptMatcher(Reasoner(onto))


class TestDegrees:
    def test_identical_is_exact(self, matcher):
        match = matcher.match_concepts(T + "Record", T + "Record")
        assert match.degree is DegreeOfMatch.EXACT
        assert match.similarity == 1.0

    def test_equivalent_is_exact(self, matcher):
        match = matcher.match_concepts(T + "StudentInfo", T + "StudentRecord")
        assert match.degree is DegreeOfMatch.EXACT

    def test_advertised_more_specific_is_plugin(self, matcher):
        match = matcher.match_concepts(T + "StudentInfo", T + "Transcript")
        assert match.degree is DegreeOfMatch.PLUGIN

    def test_advertised_more_general_is_subsume(self, matcher):
        match = matcher.match_concepts(T + "Transcript", T + "StudentInfo")
        assert match.degree is DegreeOfMatch.SUBSUME

    def test_unrelated_is_fail(self, matcher):
        match = matcher.match_concepts(T + "StudentID", T + "Unrelated")
        assert match.degree is DegreeOfMatch.FAIL
        assert not match.succeeded

    def test_degree_ordering(self):
        assert DegreeOfMatch.EXACT > DegreeOfMatch.PLUGIN > DegreeOfMatch.SUBSUME > DegreeOfMatch.FAIL


class TestConceptLists:
    def test_one_to_one_assignment(self, matcher):
        matches = matcher.match_concept_lists(
            [T + "StudentID", T + "StudentInfo"],
            [T + "StudentInfo", T + "StudentID"],
        )
        assert all(m.degree is DegreeOfMatch.EXACT for m in matches)

    def test_each_advertised_used_once(self, matcher):
        matches = matcher.match_concept_lists(
            [T + "StudentInfo", T + "StudentInfo"],
            [T + "StudentInfo"],
        )
        degrees = sorted(m.degree for m in matches)
        assert degrees == [DegreeOfMatch.FAIL, DegreeOfMatch.EXACT]

    def test_missing_request_fails(self, matcher):
        matches = matcher.match_concept_lists([T + "StudentID"], [])
        assert matches[0].degree is DegreeOfMatch.FAIL

    def test_prefers_best_degree(self, matcher):
        matches = matcher.match_concept_lists(
            [T + "StudentInfo"],
            [T + "Transcript", T + "StudentRecord"],
        )
        assert matches[0].degree is DegreeOfMatch.EXACT
        assert matches[0].advertised == T + "StudentRecord"


class TestSignature:
    def _signature(self, matcher, adv_in, adv_out, adv_action=None):
        return matcher.match_signature(
            requested_action=adv_action or (T + "Record"),
            requested_inputs=[T + "StudentID"],
            requested_outputs=[T + "StudentInfo"],
            advertised_action=adv_action or (T + "Record"),
            advertised_inputs=adv_in,
            advertised_outputs=adv_out,
        )

    def test_exact_signature(self, matcher):
        signature = self._signature(matcher, [T + "StudentID"], [T + "StudentInfo"])
        assert signature.degree is DegreeOfMatch.EXACT
        assert signature.score == 1.0
        assert signature.succeeded

    def test_weakest_component_bounds_degree(self, matcher):
        signature = self._signature(matcher, [T + "StudentID"], [T + "Transcript"])
        assert signature.degree is DegreeOfMatch.PLUGIN

    def test_failed_output_fails_signature(self, matcher):
        signature = self._signature(matcher, [T + "StudentID"], [T + "Unrelated"])
        assert signature.degree is DegreeOfMatch.FAIL
        assert not signature.succeeded

    def test_input_direction_mirrored(self, matcher):
        """A provider accepting a *more general* input than requested can be
        plugged in: advertised Identifier accepts our StudentID."""
        signature = self._signature(matcher, [T + "Identifier"], [T + "StudentInfo"])
        assert signature.inputs[0].degree is DegreeOfMatch.PLUGIN

    def test_input_too_specific_is_subsume(self, matcher):
        """A provider demanding a more specific input than we supply is risky."""
        signature = matcher.match_signature(
            requested_action=T + "Record",
            requested_inputs=[T + "Identifier"],
            requested_outputs=[T + "StudentInfo"],
            advertised_action=T + "Record",
            advertised_inputs=[T + "StudentID"],
            advertised_outputs=[T + "StudentInfo"],
        )
        assert signature.inputs[0].degree is DegreeOfMatch.SUBSUME


def _count_reasoner_calls(reasoner, monkeypatch):
    """Count the reasoner queries the matcher issues from now on."""
    calls = Counter()
    for name in ("is_subsumed_by", "equivalent", "similarity"):
        original = getattr(reasoner, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(reasoner, name, counted)
    return calls


class TestSignatureMemo:
    REQUEST = dict(
        requested_action=T + "Record",
        requested_inputs=[T + "StudentID"],
        requested_outputs=[T + "StudentInfo"],
        advertised_action=T + "Record",
        advertised_inputs=[T + "Identifier"],
        advertised_outputs=[T + "Transcript"],
    )

    def test_repeat_call_skips_the_reasoner(self, matcher, monkeypatch):
        calls = _count_reasoner_calls(matcher.reasoner, monkeypatch)
        first = matcher.match_signature(**self.REQUEST)
        assert sum(calls.values()) > 0
        calls.clear()
        again = matcher.match_signature(**self.REQUEST)
        assert sum(calls.values()) == 0
        assert again == first

    def test_key_is_the_value_not_the_container(self, matcher, monkeypatch):
        matcher.match_signature(**self.REQUEST)
        calls = _count_reasoner_calls(matcher.reasoner, monkeypatch)
        as_tuples = {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in self.REQUEST.items()
        }
        matcher.match_signature(**as_tuples)
        assert sum(calls.values()) == 0

    def test_flood_stays_within_the_cap_and_stays_correct(self, matcher):
        first = matcher.match_signature(**self.REQUEST)
        for index in range(SIGNATURE_MEMO_CAPACITY + 50):
            matcher.match_signature(
                requested_action=T + "Record",
                requested_inputs=[T + f"Ghost{index}"],
                requested_outputs=[T + "StudentInfo"],
                advertised_action=T + "Record",
                advertised_inputs=[T + "StudentID"],
                advertised_outputs=[T + "StudentInfo"],
            )
            assert len(matcher._signatures) <= SIGNATURE_MEMO_CAPACITY
        # The first entry was evicted; recomputing it gives the same answer.
        fresh = ConceptMatcher(Reasoner(matcher.reasoner.ontology))
        recomputed = matcher.match_signature(**self.REQUEST)
        assert recomputed == first == fresh.match_signature(**self.REQUEST)
        assert recomputed.degree is DegreeOfMatch.PLUGIN
        ghost = matcher.match_signature(
            requested_action=T + "Record",
            requested_inputs=[T + "Ghost3"],
            requested_outputs=[T + "StudentInfo"],
            advertised_action=T + "Record",
            advertised_inputs=[T + "StudentID"],
            advertised_outputs=[T + "StudentInfo"],
        )
        assert ghost.degree is DegreeOfMatch.FAIL

    def test_invalidate_empties_the_memo(self, matcher):
        before = matcher.match_signature(**self.REQUEST)
        assert before.degree is DegreeOfMatch.PLUGIN
        matcher.reasoner.ontology.add_equivalence(T + "Identifier", T + "StudentID")
        matcher.reasoner.ontology.add_equivalence(T + "Transcript", T + "StudentInfo")
        matcher.reasoner.invalidate()
        after = matcher.match_signature(**self.REQUEST)
        assert after.degree is DegreeOfMatch.EXACT
