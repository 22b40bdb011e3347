"""The line-at-a-time dump writer and loader, kept as a test-side
reference: `trans_lines` yields one `trans` line at a time, and
`parse_dump` reads a dump one line at a time, a head line's fields by
position, and compares each `trans` line with the next expected one.
The package's block renderer and loader must write byte-identical dumps,
and must load or refuse every text exactly as these do, with the same
message.  The rows are made here (`size_rows`), from `Action` objects and
(key, probability) tuples, so the renderer is checked against code it
shares no arithmetic with; the loader shares no pattern or helper with
the package's."""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from elastimdp.errors import ConfigurationError, InstantiationError
from elastimdp.model import (
    Action,
    ActionKind,
    MdpModel,
    MdpState,
    ModelConfig,
    StateKey,
    Variant,
)

Row = tuple[tuple[StateKey, float], ...]


def size_rows(
    config: ModelConfig, by_size: Mapping[int, Sequence[MdpState]]
) -> Iterator[tuple[int, list[tuple[Action, Row]]]]:
    """Each size of `by_size` with the rows of its sized actions, adds
    then rems, each by ascending delta: `type_share * target_weight` for
    each behavior of the target size, where an action's type share is one
    over the number of sized actions of its type at that size.  A move
    stays within the range and, except on M3, within its per-step limit."""
    for size in by_size:
        up, down = config.max_vms - size, size - config.min_vms
        if config.variant is not Variant.M3:
            up, down = min(up, config.add_limit), min(down, config.rem_limit)
        moves = [Action(ActionKind.ADD, d) for d in range(1, up + 1)]
        moves += [Action(ActionKind.REM, d) for d in range(1, down + 1)]
        rows = []
        for action in moves:
            share = 1.0 / (up if action.kind is ActionKind.ADD else down)
            targets = by_size.get(size + action.signed_delta, ())
            rows.append((action, tuple((t.key, share * t.weight) for t in targets)))
        yield size, rows


def dump(model: MdpModel) -> str:
    """`model`'s dump, written one line at a time."""
    cfg = model.config
    lines = [
        "mdpdump 1",
        f"config min_vms={cfg.min_vms} max_vms={cfg.max_vms}"
        f" add_limit={cfg.add_limit} rem_limit={cfg.rem_limit}"
        f" variant={cfg.variant.value} k={cfg.k}",
        f"initial {model.initial.label}",
    ]
    for state in model.ordered_states():
        center = f"{state.center[0]!r},{state.center[1]!r}" if state.center else "-"
        lines.append(
            f"state {state.label} vms={state.vms_num}"
            f" behavior={state.behavior_index} weight={state.weight!r}"
            f" reward={state.reward!r} phase=decision prev=none"
            f" center={center}"
        )
    lines.extend(trans_lines(model))
    return "\n".join(lines) + "\n"


def trans_lines(model: MdpModel) -> Iterator[str]:
    """The `trans` lines of `model`'s dump, in order, made lazily: sources
    in key order, each source's actions by sort key.  Each row's text is
    made once per size and written for each of the size's behaviors."""
    labels = {key: state.label for key, state in model.states.items()}
    for size, rows in size_rows(model.config, model.by_size):
        tails = [
            f" {action.label} {labels[target]} {p!r}" for action, row in rows for target, p in row
        ]
        for source in model.by_size[size]:
            head = f"trans {source.label}"
            for tail in tails:
                yield head + tail
            yield f"{head} no_op {source.label} 1.0"


# The head lines a refusal says it expected, as the loader's contract
# states them.
HEADER = "mdpdump 1"
CONFIG = (
    "config min_vms=<int> max_vms=<int> add_limit=<int> rem_limit=<int>"
    " variant=<M1|M2|M3> k=<int>"
)
INITIAL = "initial <label>"
STATE = (
    "state <label> vms=<int> behavior=<int> weight=<float> reward=<float>"
    " phase=decision prev=none center=<float,float|->"
)


class Refused(Exception):
    """A refusal of the kept line at `index`, or of the end when past them."""

    def __init__(self, index: int, what: str):
        super().__init__(what)
        self.index = index


def fields(line: str, template: str) -> list[str] | None:
    """The values of `line`'s <...> fields, read by position against
    `template`'s words, or None when its other words differ."""
    words, wants = line.split(" "), template.split(" ")
    if len(words) != len(wants):
        return None
    values = []
    for word, want in zip(words, wants):
        name, _, field = want.partition("<")
        if not field:
            if word != want:
                return None
        elif not word.startswith(name) or word == name:
            return None
        else:
            values.append(word[len(name) :])
    return values


def finite(text: str) -> float:
    """`float(text)`, refusing NaN and infinities."""
    value = float(text)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite number {text!r}")
    return value


def parse_dump(text: str) -> MdpModel:
    """Read the dump a line at a time: each non-blank line, with its words
    joined by single spaces, must be in order the header, the config and
    initial lines, the state lines up to the first line that starts with
    "trans ", then the lines `trans_lines` writes for their model, then
    nothing.  A head line's fields are read by position, its values in
    line order, then each float of a state line must be finite.  A
    refusal names the line's number in `text` (the line after the last
    non-blank one at the end) and what was expected there."""
    lines = [(n, " ".join(line.split())) for n, line in enumerate(text.splitlines(), 1)]
    lines = [(n, line) for n, line in lines if line]
    try:
        return read_lines([line for _, line in lines])
    except Refused as refused:
        i = refused.index
        n = lines[i][0] if i < len(lines) else (lines[-1][0] if lines else 0) + 1
        raise InstantiationError(f"model dump line {n}: {refused}") from None


def read_lines(lines: list[str]) -> MdpModel:
    """The model of a dump's kept lines, or the refusal of one of them."""
    def expect(i: int, template: str) -> list[str]:
        values = fields(lines[i], template) if i < len(lines) else None
        if values is None:
            end = ", found the end of the dump" if i >= len(lines) else ""
            raise Refused(i, f"expected {template!r}{end}")
        return values

    i = 0
    try:
        expect(0, HEADER)
        i = 1
        *limits, variant, k = expect(1, CONFIG)
        config = ModelConfig(*map(int, limits), Variant(variant), int(k))
        i = 2
        (initial,) = expect(2, INITIAL)
        states: dict[StateKey, MdpState] = {}
        by_label: dict[str, StateKey] = {}
        for i in range(3, len(lines) + 1):
            if i == len(lines) or lines[i].startswith("trans "):
                break
            label, vms, behavior, weight, reward, point = expect(i, STATE)
            values = [int(vms), int(behavior), float(weight), float(reward)]
            if point != "-":
                lat, _, thr = point.partition(",")
                values += [float(lat), float(thr)]
            for value in [weight, reward] + ([lat, thr] if point != "-" else []):
                finite(value)
            size, index, w, r, *center = values
            state = MdpState(size, index, w, tuple(center) or None, r)
            if state.label != label:
                raise ValueError(f"state {label} has the fields of {state.label}")
            if state.key in states:
                raise ValueError(f"state {label} is defined twice")
            states[state.key] = state
            by_label[label] = state.key
        if initial not in by_label:
            i = 2
            raise ValueError(f"initial state {initial} not defined")
        model = MdpModel(config=config, states=states, initial=states[by_label[initial]])
    except (ValueError, ConfigurationError, InstantiationError) as exc:
        raise Refused(i, str(exc)) from None
    # `trans_lines` is lazy, so this work is bounded by the dump's lines.
    expected = trans_lines(model)
    for i in range(i, len(lines)):
        want = next(expected, None)
        if want is None:
            raise Refused(i, "expected the end of the dump")
        if lines[i] != want:
            raise Refused(i, f"expected {want!r}")
    want = next(expected, None)
    if want is not None:
        raise Refused(len(lines), f"expected {want!r}, found the end of the dump")
    return model
