"""Property-based tests: ontology reasoning invariants on random DAGs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ontology import ConceptMatcher, DegreeOfMatch, Ontology, Reasoner

NS = "http://prop.test/o#"


@st.composite
def ontologies(draw):
    """Random acyclic ontologies: parents only point to lower indices
    (guaranteeing acyclicity), plus a few equivalences between roots."""
    size = draw(st.integers(min_value=2, max_value=14))
    onto = Ontology("http://prop.test/o")
    names = [f"{NS}C{i}" for i in range(size)]
    for index, name in enumerate(names):
        parent_count = draw(st.integers(min_value=0, max_value=min(2, index)))
        parents = draw(
            st.lists(
                st.sampled_from(names[:index]) if index else st.nothing(),
                min_size=parent_count,
                max_size=parent_count,
                unique=True,
            )
        ) if index else []
        onto.add_concept(name, parents=parents)
    # A couple of equivalences between same-generation concepts.
    eq_count = draw(st.integers(min_value=0, max_value=2))
    for _ in range(eq_count):
        a = draw(st.sampled_from(names))
        b = draw(st.sampled_from(names))
        onto.add_equivalence(a, b)
    return onto


#: URIs no drawn ontology declares, so signatures also mix in unknown concepts.
UNKNOWN = ("urn:unknown:A", "urn:unknown:B")


@st.composite
def signature_queries(draw, onto, count):
    """``count`` random ordered (request, advertisement) signatures over
    ``onto``'s concepts and :data:`UNKNOWN`, duplicates allowed.  About
    half are an earlier query again with each concept list possibly
    reordered, so exact repeats and permuted near-repeats both occur."""
    uris = st.sampled_from(sorted(onto.concepts) + list(UNKNOWN))
    concept_lists = st.lists(uris, max_size=3).map(tuple)
    signature = st.tuples(
        uris, concept_lists, concept_lists, uris, concept_lists, concept_lists
    )
    queries = []
    for _ in range(count):
        if queries and draw(st.booleans()):
            earlier = draw(st.sampled_from(queries))
            queries.append(tuple(
                part if isinstance(part, str) else tuple(draw(st.permutations(part)))
                for part in earlier
            ))
        else:
            queries.append(draw(signature))
    return queries


def assert_matches_fresh_matcher(matcher, onto, query):
    """The memoised result equals a from-scratch match on the same ontology."""
    got = matcher.match_signature(*query)
    want = ConceptMatcher(Reasoner(onto)).match_signature(*query)
    assert got.degree is want.degree
    assert got.score == want.score
    assert got.action == want.action
    assert got.inputs == want.inputs
    assert got.outputs == want.outputs


@given(data=st.data(), onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_memoised_signature_match_equals_fresh_match(data, onto):
    matcher = ConceptMatcher(Reasoner(onto))
    for query in data.draw(signature_queries(onto, 12)):
        assert_matches_fresh_matcher(matcher, onto, query)


@given(data=st.data(), onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_memo_follows_invalidated_mutations(data, onto):
    """Interleave queries with ontology mutations, each followed by
    ``invalidate()``: the long-lived matcher never serves a stale match."""
    matcher = ConceptMatcher(Reasoner(onto))
    names = sorted(onto.concepts, key=lambda uri: int(uri.rsplit("C", 1)[1]))
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        for query in data.draw(signature_queries(onto, 4)):
            assert_matches_fresh_matcher(matcher, onto, query)
        pair = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
        low, high = sorted(data.draw(pair), key=names.index)
        if data.draw(st.booleans()):
            # Child above parent in index order keeps the hierarchy acyclic.
            onto.add_subclass(high, low)
        else:
            onto.add_equivalence(low, high)
        matcher.reasoner.invalidate()
    for query in data.draw(signature_queries(onto, 4)):
        assert_matches_fresh_matcher(matcher, onto, query)


def test_mutation_without_invalidate_leaves_matches_frozen():
    onto = Ontology("http://prop.test/o")
    onto.add_concept(NS + "Record")
    onto.add_concept(NS + "Transcript")
    query = (
        NS + "Record", (), (NS + "Record",), NS + "Record", (), (NS + "Transcript",)
    )
    matcher = ConceptMatcher(Reasoner(onto))
    before = matcher.match_signature(*query)
    assert before.degree is DegreeOfMatch.FAIL

    onto.add_subclass(NS + "Transcript", NS + "Record")
    assert matcher.match_signature(*query) is before

    matcher.reasoner.invalidate()
    after = matcher.match_signature(*query)
    assert after.degree is DegreeOfMatch.PLUGIN
    assert after == ConceptMatcher(Reasoner(onto)).match_signature(*query)


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_subsumption_is_reflexive(onto):
    reasoner = Reasoner(onto)
    for uri in onto.concepts:
        assert reasoner.is_subsumed_by(uri, uri)


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_subsumption_is_transitive(onto):
    reasoner = Reasoner(onto)
    uris = sorted(onto.concepts)
    for a in uris:
        for b in reasoner.ancestors(a):
            for c in reasoner.ancestors(b):
                assert reasoner.is_subsumed_by(a, c)


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_equivalence_is_an_equivalence_relation(onto):
    reasoner = Reasoner(onto)
    uris = sorted(onto.concepts)
    for a in uris:
        assert reasoner.equivalent(a, a)
        for b in uris:
            assert reasoner.equivalent(a, b) == reasoner.equivalent(b, a)
    # Transitivity via equivalence classes.
    for a in uris:
        cls = reasoner.equivalence_class(a)
        for b in cls:
            assert reasoner.equivalence_class(b) == cls


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_equivalent_concepts_subsume_each_other(onto):
    reasoner = Reasoner(onto)
    for a in sorted(onto.concepts):
        for b in reasoner.equivalence_class(a):
            assert reasoner.is_subsumed_by(a, b)
            assert reasoner.is_subsumed_by(b, a)


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_similarity_symmetric_and_bounded(onto):
    reasoner = Reasoner(onto)
    uris = sorted(onto.concepts)[:8]
    for a in uris:
        for b in uris:
            s_ab = reasoner.similarity(a, b)
            s_ba = reasoner.similarity(b, a)
            assert 0.0 <= s_ab <= 1.0
            assert abs(s_ab - s_ba) < 1e-12
    for a in uris:
        assert reasoner.similarity(a, a) == 1.0


@given(onto=ontologies())
@settings(max_examples=60, deadline=None)
def test_match_degree_consistent_with_subsumption(onto):
    reasoner = Reasoner(onto)
    matcher = ConceptMatcher(reasoner)
    uris = sorted(onto.concepts)[:8]
    for requested in uris:
        for advertised in uris:
            degree = matcher.match_concepts(requested, advertised).degree
            if reasoner.equivalent(requested, advertised):
                assert degree is DegreeOfMatch.EXACT
            elif reasoner.is_subsumed_by(advertised, requested):
                assert degree is DegreeOfMatch.PLUGIN
            elif reasoner.is_subsumed_by(requested, advertised):
                assert degree is DegreeOfMatch.SUBSUME
            else:
                assert degree is DegreeOfMatch.FAIL


@given(onto=ontologies())
@settings(max_examples=40, deadline=None)
def test_owl_xml_roundtrip_preserves_reasoning(onto):
    from repro.ontology import ontology_from_xml, ontology_to_xml

    parsed = ontology_from_xml(ontology_to_xml(onto))
    original = Reasoner(onto)
    recovered = Reasoner(parsed)
    for uri in sorted(onto.concepts):
        assert original.ancestors(uri) == recovered.ancestors(uri)


@given(onto=ontologies())
@settings(max_examples=40, deadline=None)
def test_turtle_roundtrip_preserves_reasoning(onto):
    from repro.ontology import ontology_from_turtle, ontology_to_turtle

    parsed = ontology_from_turtle(ontology_to_turtle(onto))
    original = Reasoner(onto)
    recovered = Reasoner(parsed)
    for uri in sorted(onto.concepts):
        assert original.ancestors(uri) == recovered.ancestors(uri)


@given(onto=ontologies())
@settings(max_examples=40, deadline=None)
def test_xml_and_turtle_agree(onto):
    """The two serialisations describe the same ontology."""
    from repro.ontology import (
        ontology_from_turtle,
        ontology_from_xml,
        ontology_to_turtle,
        ontology_to_xml,
    )

    via_xml = ontology_from_xml(ontology_to_xml(onto))
    via_turtle = ontology_from_turtle(ontology_to_turtle(onto))
    assert set(via_xml.concepts) == set(via_turtle.concepts)
    for uri in via_xml.concepts:
        assert via_xml.concepts[uri].parents == via_turtle.concepts[uri].parents
