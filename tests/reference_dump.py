"""The line-at-a-time dump writer and loader, kept as a test-side
reference: `trans_lines` yields one `trans` line at a time, and
`parse_dump` splits every line into words and compares each `trans`
line with the next expected one.  The package's block renderer and loader
must write byte-identical dumps, and must load or refuse every text
exactly as these do, with the same message.  The rows are made here
(`size_rows`), from `Action` objects and (key, probability) tuples, so the
renderer is checked against code it shares no arithmetic with."""

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
    finite_float,
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


def parse_dump(text: str) -> MdpModel:
    """Build the model from the dump's header, config, initial and state
    lines, then check its `trans` lines, word by word and in order,
    against the lines `trans_lines` writes for that model."""
    lines = [(n, line.split()) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines or lines[0][1] != ["mdpdump", "1"]:
        raise InstantiationError("not a model dump (missing 'mdpdump 1' header)")

    config: ModelConfig | None = None
    initial_label: str | None = None
    states: dict[StateKey, MdpState] = {}
    by_label: dict[str, StateKey] = {}
    trans: list[tuple[int, list[str]]] = []

    for number, words in lines[1:]:
        try:
            if words[0] == "trans":
                trans.append((number, words))
            elif words[0] == "state":
                _, label, *fields = words
                attrs = dict(field.split("=", 1) for field in fields if "=" in field)
                center = None
                if attrs["center"] != "-":
                    lat, thr = attrs["center"].split(",")
                    center = (finite_float(lat), finite_float(thr))
                if (attrs["phase"], attrs["prev"]) != ("decision", "none"):
                    raise ValueError(
                        f"phase={attrs['phase']} prev={attrs['prev']}, but every state"
                        " has phase=decision prev=none"
                    )
                state = MdpState(
                    vms_num=int(attrs["vms"]),
                    behavior_index=int(attrs["behavior"]),
                    weight=finite_float(attrs["weight"]),
                    center=center,
                    reward=finite_float(attrs["reward"]),
                )
                if label != state.label:
                    raise ValueError(f"state {label} has the fields of {state.label}")
                if state.key in states:
                    raise ValueError(f"state {label} is defined twice")
                states[state.key] = state
                by_label[label] = state.key
            elif words[0] == "config":
                if config is not None:
                    raise ValueError("second config line")
                attrs = dict(field.split("=", 1) for field in words if "=" in field)
                config = ModelConfig(
                    min_vms=int(attrs["min_vms"]),
                    max_vms=int(attrs["max_vms"]),
                    add_limit=int(attrs["add_limit"]),
                    rem_limit=int(attrs["rem_limit"]),
                    variant=Variant(attrs["variant"]),
                    k=int(attrs["k"]),
                )
            elif words[0] == "initial":
                if initial_label is not None:
                    raise ValueError("second initial line")
                _, initial_label = words
            else:
                raise ValueError(f"unrecognized dump line {' '.join(words)!r}")
        except KeyError as exc:
            raise InstantiationError(f"model dump line {number}: missing {exc.args[0]}=") from exc
        except (ValueError, ConfigurationError) as exc:
            raise InstantiationError(f"model dump line {number}: {exc}") from exc

    if config is None or initial_label is None:
        raise InstantiationError("model dump lacks its config or initial line")
    if initial_label not in by_label:
        raise InstantiationError(f"initial state {initial_label} not defined")

    model = MdpModel(
        config=config,
        states=states,
        initial=states[by_label[initial_label]],
    )
    # `trans_lines` is lazy, so this work is bounded by the dump's lines.
    expected = trans_lines(model)
    for number, words in trans:
        want = next(expected, None)
        if want is None:
            raise InstantiationError(f"model dump line {number}: expected no further trans line")
        if " ".join(words) != want:
            raise InstantiationError(f"model dump line {number}: expected {want!r}")
    want = next(expected, None)
    if want is not None:
        raise InstantiationError(
            f"model dump line {lines[-1][0] + 1}: expected {want!r}, found the end of the dump"
        )
    return model
