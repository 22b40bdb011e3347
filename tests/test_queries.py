import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastimdp.errors import ElastimdpError, QueryEvaluationError, QueryParseError
from elastimdp.model import MdpState, ModelConfig, Variant, build_model
from elastimdp.queries import _tokenize, parse_query
from elastimdp.solver import reachability_probability

import reference_tokens


def annotated_chain():
    config = ModelConfig(4, 7, add_limit=1, rem_limit=1)
    states = [
        MdpState(4, center=(55.0, 16000.0), reward=1.0),
        MdpState(5, center=(40.0, 20000.0), reward=1.0),
        MdpState(6, center=(33.0, 24000.0), reward=1.0),
        MdpState(7, center=(25.0, 28000.0), reward=1.0),
    ]
    return build_model(config, states, current=4)


class TestParsing:
    def test_reference_query_string(self):
        query = parse_query("Pmax=? [ F latency<30 & vms_num=7 ]")
        assert query.mode == "max"
        state = MdpState(7, center=(25.0, 28000.0))
        assert query.predicate(state)
        assert not query.predicate(MdpState(7, center=(45.0, 28000.0)))
        assert not query.predicate(MdpState(6, center=(25.0, 28000.0)))

    def test_pmin_and_compact_whitespace(self):
        query = parse_query("Pmin=?[F vms_num>=5]")
        assert query.mode == "min"
        assert query.predicate(MdpState(5))

    def test_all_operators(self):
        for op, value, expect in [
            ("<", 5, False),
            ("<=", 5, True),
            (">", 5, False),
            (">=", 5, True),
            ("=", 5, True),
            ("==", 5, True),
            ("!=", 5, False),
        ]:
            predicate = parse_query(f"Pmax=? [ F vms_num{op}{value} ]").predicate
            assert predicate(MdpState(5)) is expect

    def test_parse_error_positions(self):
        with pytest.raises(QueryParseError) as err:
            parse_query("Pmax=? [F vms=")
        assert err.value.position == 10  # the unknown field name
        with pytest.raises(QueryParseError) as err:
            parse_query("Pboth=? [F vms_num=4]")
        assert err.value.position == 0

    def test_unknown_field_rejected(self):
        with pytest.raises(QueryParseError, match="unknown field 'cpu'"):
            parse_query("Pmax=? [ F cpu<50 ]").predicate

    def test_missing_number(self):
        with pytest.raises(QueryParseError, match="expected a number"):
            parse_query("Pmax=? [ F latency< ]").predicate

    def test_trailing_garbage(self):
        with pytest.raises(QueryParseError, match="trailing"):
            parse_query("Pmax=? [F vms_num=4] extra")

    def test_unexpected_character(self):
        with pytest.raises(QueryParseError):
            parse_query("Pmax=? [ F latency < # ]").predicate

    def test_a_repeated_text_returns_the_same_query(self):
        text = "Pmax=? [ F latency<30 & vms_num=7 ]"
        query = parse_query(text)
        assert parse_query(text) is query
        # An equal text made anew is the same key.
        assert parse_query(" ".join(text.split(" "))) is query
        assert parse_query(text.replace("30", "31")) is not query

    @pytest.mark.parametrize("text", ["Pmax=? [F vms=", "Pmax=? [ F latency< ]", "Pboth=?"])
    def test_a_refused_text_is_refused_on_every_call(self, text):
        refusals = []
        for _ in range(3):
            with pytest.raises(QueryParseError) as err:
                parse_query(text)
            refusals.append((str(err.value), err.value.position))
        assert refusals == refusals[:1] * 3

    @pytest.mark.parametrize(
        "number", ["1e999", "-1e999", "9" * 400], ids=["1e999", "-1e999", "400-nines"]
    )
    def test_non_finite_number_rejected(self, number):
        with pytest.raises(QueryParseError, match=r"non-finite number .* \(at offset 19\)$"):
            parse_query(f"Pmax=? [ F latency<{number} ]")


# Query-like text: the head, brackets, fields, operators and numbers in
# and out of float range, in a well-formed order or shuffled.
QUERY_NUMBERS = st.sampled_from(
    ["30", "-0", "1.5e3", "1e308", "1e309", "-1e999", "1e-999", "\u0663"]
)
QUERY_CLAUSE = st.builds(
    "{}{}{}".format,
    st.sampled_from(["vms_num", "latency", "throughput", "cpu", ""]),
    st.sampled_from(["<", "<=", ">", ">=", "=", "==", "!=", "=?", ""]),
    QUERY_NUMBERS,
)
QUERY_WORDS = st.sampled_from(
    ["Pmax", "Pmin", "=?", "[", "]", "F", "&", "vms_num", "<", "7", "1e999", "#", "\x00"]
)
QUERY_TEXT = st.one_of(
    st.text(max_size=80),
    st.lists(QUERY_WORDS, max_size=14).map(" ".join),
    st.builds(
        "{}=? [ F {} ]".format,
        st.sampled_from(["Pmax", "Pmin", "P"]),
        st.lists(QUERY_CLAUSE, min_size=1, max_size=3).map(" & ".join),
    ),
)


@settings(max_examples=300, deadline=None)
@given(QUERY_TEXT)
def test_any_query_text_parses_or_raises_a_typed_error(text):
    try:
        query = parse_query(text)
    except ElastimdpError:
        return
    numbers = [float(token) for kind, token, _ in _tokenize(text) if kind == "num"]
    assert numbers and all(math.isfinite(number) for number in numbers)
    assert query.predicate(MdpState(5, center=(30.0, 20000.0))) in (True, False)


@settings(max_examples=300, deadline=None)
@given(QUERY_TEXT)
def test_tuple_tokens_match_the_dataclass_tokens(text):
    def triples_or_refusal(tokenize, as_triple):
        try:
            return [as_triple(token) for token in tokenize(text)]
        except QueryParseError as exc:
            return type(exc), str(exc), exc.position

    assert triples_or_refusal(_tokenize, tuple) == triples_or_refusal(
        reference_tokens._tokenize, dataclasses.astuple
    )


class TestEvaluation:
    def test_guaranteed_reachability(self):
        model = annotated_chain()
        query = parse_query("Pmax=? [ F vms_num=7 ]")
        assert reachability_probability(model, query) == 1.0

    def test_reference_query_on_annotated_model(self):
        model = annotated_chain()
        query = parse_query("Pmax=? [ F latency<30 & vms_num=7 ]")
        assert reachability_probability(model, query) == 1.0

    def test_unsatisfiable(self):
        model = annotated_chain()
        for text in ("Pmax=? [ F vms_num=3 ]", "Pmin=? [ F vms_num=3 ]"):
            assert reachability_probability(model, parse_query(text)) == 0.0

    def test_branch_probability(self):
        config = ModelConfig(3, 4, add_limit=1, rem_limit=1, variant=Variant.M2, k=2)
        states = [
            MdpState(3, 0, 1.0, (50.0, 500.0), reward=1.0),
            MdpState(4, 0, 0.7, (25.0, 900.0), reward=1.0),
            MdpState(4, 1, 0.3, (80.0, 100.0), reward=1.0),
        ]
        model = build_model(config, states, current=3)
        query = parse_query("Pmax=? [ F latency<30 ]")
        assert reachability_probability(model, query) == pytest.approx(0.7, abs=1e-12)

    def test_metric_predicate_needs_centers(self):
        config = ModelConfig(4, 5)
        model = build_model(config, [MdpState(4, reward=1.0), MdpState(5, reward=2.0)], current=4)
        query = parse_query("Pmax=? [ F latency<30 ]")
        with pytest.raises(QueryEvaluationError):
            reachability_probability(model, query)


def reference_predicate(clauses, state):
    """The conjunction evaluated per state as a generator over the clause
    list, each field read by name: the form the compiled predicate
    replaces."""
    ops = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "=": lambda a, b: a == b,
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
    }

    def read(name):
        if name == "vms_num":
            return float(state.vms_num)
        if state.center is None:
            raise QueryEvaluationError(
                f"state {state.label} carries no behavior center; {name} is undefined"
            )
        return state.center[0 if name == "latency" else 1]

    return all(ops[op](read(name), value) for name, op, value in clauses)


def verdict(predicate, state):
    try:
        return predicate(state)
    except QueryEvaluationError as exc:
        return type(exc), str(exc)


# Values on both sides of, and equal to, the states' fields.
CLAUSE_VALUES = st.sampled_from([-1.0, 0.0, 3.0, 4.0, 5.0, 25.0, 30.0, 40.0, 2e4, 2.5e4, 1e308])
CLAUSES = st.lists(
    st.tuples(
        st.sampled_from(["vms_num", "latency", "throughput"]),
        st.sampled_from(["<", "<=", ">", ">=", "=", "==", "!="]),
        CLAUSE_VALUES,
    ),
    min_size=1,
    max_size=4,
)
STATES = st.builds(
    MdpState,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2),
    st.just(1.0),
    st.none() | st.tuples(CLAUSE_VALUES, CLAUSE_VALUES),
)


@settings(max_examples=300, deadline=None)
@given(CLAUSES, st.lists(STATES, min_size=1, max_size=5))
def test_compiled_predicate_matches_the_per_state_conjunction(clauses, states):
    text = "Pmax=? [ F " + " & ".join(f"{n}{op}{v!r}" for n, op, v in clauses) + " ]"
    predicate = parse_query(text).predicate
    for state in states:
        assert verdict(predicate, state) == verdict(
            lambda s: reference_predicate(clauses, s), state
        )
