"""Sample exporters: collapsed stacks and speedscope.

Two flamegraph-ready formats over one :class:`~repro.sampling.sampler.
FoldedStore`:

* :func:`collapsed_text` — Brendan-Gregg folded stacks
  (``frame;frame;frame count``), the input of ``flamegraph.pl`` and
  most modern flamegraph viewers.  Waiting samples carry a trailing
  ``[wait]`` frame so CPU and wait time separate visually.
* :func:`speedscope_profile` — a https://speedscope.app "sampled"
  profile document, one profile per sample state, weights in seconds.

Each format has a schema validator used by the test suite and the
profile CLI.
"""

from __future__ import annotations

import json

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def _clean(frame: str) -> str:
    """Folded syntax reserves ``;`` and the trailing space+count."""
    return frame.replace(";", ",").strip() or "?"


# ---------------------------------------------------------------------------
# Collapsed stacks


def collapsed_text(store) -> str:
    """Folded-stack lines, most frequent first."""
    lines = []
    ranked = sorted(store.stacks.items(),
                    key=lambda item: item[1], reverse=True)
    for (stack, state), count in ranked:
        frames = [_clean(frame) for frame in stack]
        if state != "cpu":
            frames.append(f"[{state}]")
        lines.append(f"{';'.join(frames)} {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_collapsed(text: str) -> list[str]:
    """Schema-check folded output; returns problems ([] == valid)."""
    problems: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        stack_text, _sep, count_text = line.rpartition(" ")
        if not stack_text:
            problems.append(f"line {number}: no stack before the count")
            continue
        try:
            count = int(count_text)
        except ValueError:
            problems.append(f"line {number}: count {count_text!r} is "
                            f"not an integer")
            continue
        if count <= 0:
            problems.append(f"line {number}: non-positive count {count}")
        if any(not frame for frame in stack_text.split(";")):
            problems.append(f"line {number}: empty frame in stack")
    return problems


# ---------------------------------------------------------------------------
# Speedscope


def speedscope_profile(store, *, interval: float,
                       name: str = "omp4py samples") -> dict:
    """A speedscope file with one sampled profile per sample state."""
    frame_index: dict[str, int] = {}
    frames: list[dict] = []

    def index_of(label: str) -> int:
        position = frame_index.get(label)
        if position is None:
            position = len(frames)
            frame_index[label] = position
            frames.append({"name": label})
        return position

    by_state: dict[str, tuple[list, list]] = {}
    for (stack, state), count in sorted(store.stacks.items(),
                                        key=lambda item: -item[1]):
        samples, weights = by_state.setdefault(state, ([], []))
        samples.append([index_of(label) for label in stack])
        weights.append(count * interval)

    profiles = []
    for state in sorted(by_state):
        samples, weights = by_state[state]
        total = sum(weights)
        profiles.append({
            "type": "sampled",
            "name": f"{name} [{state}]",
            "unit": "seconds",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        })
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro.sampling",
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def validate_speedscope(payload) -> list[str]:
    """Schema-check a speedscope document; returns problems."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["top level must be an object"]
    if payload.get("$schema") != SPEEDSCOPE_SCHEMA:
        problems.append(f"$schema must be {SPEEDSCOPE_SCHEMA!r}")
    shared = payload.get("shared")
    frames = shared.get("frames") if isinstance(shared, dict) else None
    if not isinstance(frames, list):
        return [*problems, "shared.frames must be a list"]
    for index, frame in enumerate(frames):
        if not isinstance(frame, dict) or not isinstance(
                frame.get("name"), str):
            problems.append(f"shared.frames[{index}]: missing name")
    profiles = payload.get("profiles")
    if not isinstance(profiles, list):
        return [*problems, "profiles must be a list"]
    for number, profile in enumerate(profiles):
        where = f"profiles[{number}]"
        if not isinstance(profile, dict):
            problems.append(f"{where}: not an object")
            continue
        if profile.get("type") != "sampled":
            problems.append(f"{where}: type must be 'sampled'")
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            problems.append(f"{where}: samples/weights must be lists")
            continue
        if len(samples) != len(weights):
            problems.append(f"{where}: {len(samples)} samples vs "
                            f"{len(weights)} weights")
        for position, sample in enumerate(samples):
            if not isinstance(sample, list) or any(
                    not isinstance(ref, int) or not
                    0 <= ref < len(frames) for ref in sample):
                problems.append(f"{where}.samples[{position}]: frame "
                                f"reference out of range")
                break
        if any(not isinstance(weight, (int, float)) or weight < 0
               for weight in weights):
            problems.append(f"{where}: negative or non-numeric weight")
    return problems


# ---------------------------------------------------------------------------
# File writers


def write_collapsed(path, store) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(collapsed_text(store))


def write_speedscope(path, store, *, interval: float,
                     name: str = "omp4py samples") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(speedscope_profile(store, interval=interval,
                                     name=name), handle)
