"""Synthetic log corpus generation with planted per-cause fault markers.

Each failed log of cause j contains at least one marker line unique to
that cause; passed logs contain only the shared benign templates.  Marker
and benign template strings may carry ``{int}``, ``{hex}``, ``{ip}``,
``{path}`` and ``{word}`` fields that are randomized per line, so the
template miner is genuinely exercised.  Generation is byte-deterministic
under a fixed seed.  ``SyntheticSpec`` checks every field when built, in
code or from JSON (``spec_from_dict``).  A corpus's ``manifest.json`` holds
its spec's fields in field order, so ``spec_from_dict`` reads it back into
the spec that wrote it, and ``gen`` on it writes the same corpus again.
"""

import json
import random
import re
from dataclasses import asdict, dataclass, fields
from functools import partial
from numbers import Real
from pathlib import Path

from .errors import ValidationError

_FILL_PATTERN = re.compile(r"\{(int|hex|ip|path|word)\}")
_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
    "golf", "hotel", "india", "juliet", "kilo", "lima",
)
_NOISE_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
# What generate_synthetic writes into its output directory.
_CORPUS_ENTRIES = ("passed", "failed", "labels.csv", "manifest.json")

BENIGN_TEMPLATES = (
    "INFO scheduler tick {int} completed",
    "Connected to {ip} port {int}",
    "cmd.pathinfo={path}",
    "Took {int} seconds to build instances",
    "Heartbeat ok from node{int}",
    "Cache refresh finished in {int} ms",
    "Session {hex} opened by operator {word}",
    "Test step {int} passed with status {int}",
)

# Phrases are cycled per cause with an offset so adjacent causes do not
# reuse the same phrase order; the head token makes every marker distinct.
# Their token counts spread markers over several parse-tree buckets, so a
# bucket never collects enough sibling heads to hit the branch cap (which
# would route different causes' markers into one shared leaf).
_MARKER_PHRASES = (
    "assertion failed in module {word} after {int} retries",
    "unexpected return code {int} from subsystem {word}",
    "checksum {hex} mismatch detected on unit {int}",
    "watchdog expired while waiting for {word}",
    "resource pool exhausted near {path}",
    "state machine stuck in phase {int}",
    "fatal handshake rejected by peer {ip} during {word} negotiation phase",
    "irrecoverable parity defect flagged at offset {hex} near bank {int} controller {word}",
)
_CAUSE_WORDS = (
    "ALFA", "BRAVO", "CHARLIE", "DELTA", "ECHO", "FOXTROT", "GOLF", "HOTEL",
)


def _alpha_index(i: int) -> str:
    # Digit-free index so marker head tokens route as literals.
    i, rem = divmod(i, 26)
    letters = chr(ord("a") + rem)
    while i:
        i, rem = divmod(i - 1, 26)
        letters = chr(ord("a") + rem) + letters
    return letters


def default_markers(k: int, per_cause: int) -> tuple[tuple[str, ...], ...]:
    if k > len(_CAUSE_WORDS):
        raise ValidationError(f"default markers support at most {len(_CAUSE_WORDS)} causes")
    groups = []
    for cause in range(k):
        head = _CAUSE_WORDS[cause]
        groups.append(
            tuple(
                f"FAULT-{head}-{_alpha_index(i)} "
                + _MARKER_PHRASES[(cause * 7 + i) % len(_MARKER_PHRASES)]
                for i in range(per_cause)
            )
        )
    return tuple(groups)


def _int(name: str, value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"spec field {name!r} must be an integer, got {value!r}")


def _items(name: str, value, check) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"spec field {name!r} must be a list, got {value!r}")
    return tuple(check(name, item) for item in value)


def _template(name: str, value) -> str:
    # One log line each, a first token as marker signature, and UTF-8 text
    # to write (a lone surrogate has no UTF-8 form).
    if isinstance(value, str) and value.strip() and value.splitlines() == [value]:
        if value.encode("utf-8", "replace").decode("utf-8") == value:
            return value
    raise ValidationError(f"spec field {name!r}: not one non-blank line of text: {value!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic corpus, checked on construction.

    Counts, ``seed`` and ``lines_range`` hold ints and ``noise_rate`` is a
    real number, kept as a float; a bool is neither.  Lists become tuples.

    ``last_cause_contamination`` plants that many majority-cause (cause 0)
    marker lines into every log of the last cause, producing the fixture
    where dropping the class-frequency scaling hurts minority recall.
    """

    cause_counts: tuple[int, ...]
    passed_count: int
    seed: int
    markers: tuple[tuple[str, ...], ...] = ()
    benign: tuple[str, ...] = BENIGN_TEMPLATES
    noise_rate: float = 0.0
    lines_range: tuple[int, int] = (6, 12)
    last_cause_contamination: int = 0

    def __post_init__(self):
        for name in ("passed_count", "seed", "last_cause_contamination"):
            _int(name, getattr(self, name))
        set_field = partial(object.__setattr__, self)
        set_field("cause_counts", _items("cause_counts", self.cause_counts, _int))
        set_field("lines_range", _items("lines_range", self.lines_range, _int))
        set_field("benign", _items("benign", self.benign, _template))
        set_field("markers", _items("markers", self.markers, partial(_items, check=_template)))
        rate = self.noise_rate
        if not isinstance(rate, Real) or isinstance(rate, bool) or not 0.0 <= rate < 1.0:
            raise ValidationError(f"noise_rate must be a real number in [0, 1), got {rate!r}")
        set_field("noise_rate", float(rate))
        if self.k < 2:
            raise ValidationError("spec needs at least 2 causes")
        if min(self.passed_count, self.last_cause_contamination, *self.cause_counts) < 0:
            raise ValidationError("log counts and last_cause_contamination must be >= 0")
        if len(self.markers) != self.k or not all(self.markers):
            raise ValidationError(
                f"need one non-empty marker set per cause, sizes {[len(g) for g in self.markers]}"
            )
        if not self.benign:
            raise ValidationError("spec needs at least one benign template")
        seen: dict[str, str] = {t: "benign" for t in self.benign}
        for cause, group in enumerate(self.markers):
            for template in group:
                if template in seen:
                    raise ValidationError(
                        f"marker template {template!r} of cause {cause} also appears as {seen[template]}"
                    )
                seen[template] = f"marker of cause {cause}"
        if len(self.lines_range) != 2 or not 1 <= self.lines_range[0] <= self.lines_range[1]:
            raise ValidationError(f"bad lines_range {self.lines_range}")

    @property
    def k(self) -> int:
        return len(self.cause_counts)

    def marker_signatures(self) -> dict[str, int]:
        """First token of each marker template -> cause id."""
        return {t.split()[0]: c for c, group in enumerate(self.markers) for t in group}


def default_spec(
    cause_counts=(60, 25, 10, 5),
    passed_count=30,
    markers_per_cause=4,
    noise_rate=0.1,
    lines_range=(6, 12),
    seed=0,
    last_cause_contamination=0,
) -> SyntheticSpec:
    return SyntheticSpec(
        cause_counts=cause_counts,
        passed_count=passed_count,
        seed=seed,
        markers=default_markers(len(cause_counts), markers_per_cause),
        noise_rate=noise_rate,
        lines_range=lines_range,
        last_cause_contamination=last_cause_contamination,
    )


def spec_from_dict(data: dict) -> SyntheticSpec:
    """Build a spec from parsed JSON, a spec file or a ``manifest.json``.

    Without ``markers``, each cause gets ``markers_per_cause`` (default 4)
    built-in markers; a spec may not give both.
    """
    if not isinstance(data, dict):
        raise ValidationError("synthetic spec must be a JSON object")
    kwargs = dict(data)
    if "markers_per_cause" in kwargs and kwargs.get("markers") is not None:
        raise ValidationError("spec gives both 'markers' and 'markers_per_cause'")
    per_cause = kwargs.pop("markers_per_cause", 4)
    unknown = sorted(set(kwargs) - {f.name for f in fields(SyntheticSpec)})
    if unknown:
        raise ValidationError(f"unknown spec fields: {', '.join(unknown)}")
    for required in ("cause_counts", "passed_count", "seed"):
        if required not in kwargs:
            raise ValidationError(f"spec field {required!r} is required")
    if kwargs.get("markers") is None:
        k = len(_items("cause_counts", kwargs["cause_counts"], _int))
        kwargs["markers"] = default_markers(k, _int("markers_per_cause", per_cause))
    return SyntheticSpec(**kwargs)


def _fill(template: str, rng: random.Random) -> str:
    def repl(match: re.Match) -> str:
        kind = match.group(1)
        if kind == "int":
            return str(rng.randint(0, 99999))
        if kind == "hex":
            return f"0x{rng.getrandbits(32):08x}"
        if kind == "ip":
            return ".".join(str(rng.randint(1, 254)) for _ in range(4))
        if kind == "path":
            parts = "/".join(rng.choice(_WORDS) for _ in range(3))
            return f"/{parts}/{rng.choice(_WORDS)}.log:{rng.randint(1, 999)}"
        return rng.choice(_WORDS)

    return _FILL_PATTERN.sub(repl, template)


def _noise_line(rng: random.Random) -> str:
    # Longer than every marker and benign shape, so noise floods its own
    # parse-tree buckets and can never push markers into an overflow leaf.
    # Letters only: two noise lines share no tokens, so they never merge.
    count = rng.randint(14, 20)
    return " ".join(
        "".join(rng.choices(_NOISE_ALPHABET, k=rng.randint(5, 10))) for _ in range(count)
    )


def _passed_lines(spec: SyntheticSpec, rng: random.Random, index: int) -> list[str]:
    count = rng.randint(*spec.lines_range)
    # First line cycles the benign pool so every benign template is
    # guaranteed to occur in some passed log (and is diffed away later).
    lines = [_fill(spec.benign[index % len(spec.benign)], rng)]
    lines.extend(_fill(rng.choice(spec.benign), rng) for _ in range(count - 1))
    return lines


def _failed_lines(spec: SyntheticSpec, rng: random.Random, cause: int, index: int) -> list[str]:
    group = spec.markers[cause]
    lines = [_fill(group[index % len(group)], rng)]
    if cause == spec.k - 1 and spec.last_cause_contamination:
        majority = spec.markers[0]
        lines.extend(
            _fill(majority[(index + t) % len(majority)], rng)
            for t in range(spec.last_cause_contamination)
        )
    count = rng.randint(*spec.lines_range)
    lines.extend(_fill(rng.choice(spec.benign), rng) for _ in range(count))
    lines.extend(_noise_line(rng) for _ in range(count) if rng.random() < spec.noise_rate)
    rng.shuffle(lines)
    return lines


def generate_synthetic(spec: SyntheticSpec, out_dir) -> Path:
    """Write the corpus directory tree and return the manifest path.

    ``out_dir`` may exist, but not hold a corpus: logs of an earlier corpus
    left next to the new ``labels.csv`` would be read as part of it.
    Nothing is deleted.
    """
    out = Path(out_dir)
    found = [name for name in _CORPUS_ENTRIES if (out / name).exists()]
    if found:
        raise ValidationError(f"{out} already holds a corpus: {', '.join(found)}")
    passed_dir = out / "passed"
    failed_dir = out / "failed"
    passed_dir.mkdir(parents=True, exist_ok=True)
    failed_dir.mkdir(parents=True, exist_ok=True)

    rng = random.Random(spec.seed)
    for i in range(spec.passed_count):
        path = passed_dir / f"p{i:05d}.log"
        path.write_text("\n".join(_passed_lines(spec, rng, i)) + "\n", encoding="utf-8")

    label_rows = ["log_id,cause_id"]
    index = 0
    for cause, count in enumerate(spec.cause_counts):
        for j in range(count):
            log_id = f"f{index:05d}"
            index += 1
            path = failed_dir / f"{log_id}.log"
            path.write_text(
                "\n".join(_failed_lines(spec, rng, cause, j)) + "\n", encoding="utf-8"
            )
            label_rows.append(f"{log_id},{cause}")
    (out / "labels.csv").write_text("\n".join(label_rows) + "\n", encoding="utf-8")

    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(asdict(spec), indent=2) + "\n", encoding="utf-8")
    return manifest_path
