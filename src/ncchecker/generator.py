"""Synthetic log corpus generation with planted per-cause fault markers.

Each failed log of cause j contains at least one marker line unique to
that cause; passed logs contain only the shared benign templates.  Marker
and benign template strings may carry ``{int}``, ``{hex}``, ``{ip}``,
``{path}`` and ``{word}`` fields that are randomized per line, so the
template miner is genuinely exercised.  Generation is byte-deterministic
under a fixed seed.
"""

import hashlib
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError

MANIFEST_HEADER = "ncc-manifest v1"

_FILL_PATTERN = re.compile(r"\{(int|hex|ip|path|word)\}")
_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
    "golf", "hotel", "india", "juliet", "kilo", "lima",
)
_NOISE_ALPHABET = "abcdefghijklmnopqrstuvwxyz"

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
    letters = ""
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


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic corpus.

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
        object.__setattr__(self, "cause_counts", tuple(int(c) for c in self.cause_counts))
        object.__setattr__(self, "markers", tuple(tuple(m) for m in self.markers))
        object.__setattr__(self, "benign", tuple(self.benign))
        object.__setattr__(self, "lines_range", tuple(int(v) for v in self.lines_range))

    @property
    def k(self) -> int:
        return len(self.cause_counts)

    def validate(self) -> "SyntheticSpec":
        if self.k < 2:
            raise ValidationError("spec needs at least 2 causes")
        if any(c < 0 for c in self.cause_counts) or self.passed_count < 0:
            raise ValidationError("log counts must be >= 0")
        if len(self.markers) != self.k:
            raise ValidationError(
                f"need one marker set per cause: {self.k} causes, {len(self.markers)} sets"
            )
        if any(not group for group in self.markers):
            raise ValidationError("every cause needs at least one marker template")
        seen: dict[str, str] = {t: "benign" for t in self.benign}
        for cause, group in enumerate(self.markers):
            for template in group:
                if template in seen:
                    raise ValidationError(
                        f"marker template {template!r} of cause {cause} also appears as {seen[template]}"
                    )
                seen[template] = f"marker of cause {cause}"
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValidationError(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        lo, hi = self.lines_range
        if lo < 1 or hi < lo:
            raise ValidationError(f"bad lines_range {self.lines_range}")
        if self.last_cause_contamination < 0:
            raise ValidationError("last_cause_contamination must be >= 0")
        return self


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
        cause_counts=tuple(cause_counts),
        passed_count=passed_count,
        seed=seed,
        markers=default_markers(len(cause_counts), markers_per_cause),
        noise_rate=noise_rate,
        lines_range=tuple(lines_range),
        last_cause_contamination=last_cause_contamination,
    )


def spec_from_dict(data: dict) -> SyntheticSpec:
    """Build a spec from parsed JSON; markers default to the built-in sets."""
    if not isinstance(data, dict):
        raise ValidationError("synthetic spec must be a JSON object")
    known = {
        "cause_counts", "passed_count", "seed", "markers", "benign",
        "noise_rate", "lines_range", "last_cause_contamination", "markers_per_cause",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValidationError(f"unknown spec fields: {', '.join(unknown)}")
    for required in ("cause_counts", "passed_count", "seed"):
        if required not in data:
            raise ValidationError(f"spec field {required!r} is required")
    counts = _spec_ints("cause_counts", data["cause_counts"])
    markers = data.get("markers")
    if markers is None:
        per_cause = _spec_value("markers_per_cause", data.get("markers_per_cause", 4), int)
        markers = default_markers(len(counts), per_cause)
    elif not isinstance(markers, (list, tuple)):
        raise ValidationError("spec field 'markers' must be a list of lists of strings")
    kwargs = dict(
        cause_counts=counts,
        passed_count=_spec_value("passed_count", data["passed_count"], int),
        seed=_spec_value("seed", data["seed"], int),
        markers=tuple(_spec_strings("markers", group) for group in markers),
    )
    if "benign" in data:
        kwargs["benign"] = _spec_strings("benign", data["benign"])
    if "noise_rate" in data:
        kwargs["noise_rate"] = _spec_value("noise_rate", data["noise_rate"], float)
    if "lines_range" in data:
        kwargs["lines_range"] = _spec_ints("lines_range", data["lines_range"])
        if len(kwargs["lines_range"]) != 2:
            raise ValidationError("spec field 'lines_range' must hold two integers")
    if "last_cause_contamination" in data:
        kwargs["last_cause_contamination"] = _spec_value(
            "last_cause_contamination", data["last_cause_contamination"], int
        )
    return SyntheticSpec(**kwargs).validate()


def _spec_value(field: str, value, kind):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"spec field {field!r}: expected {kind.__name__}, got {value!r}"
        ) from None


def _spec_ints(field: str, values) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"spec field {field!r} must be a list of integers")
    return tuple(_spec_value(field, value, int) for value in values)


def _spec_strings(field: str, values) -> tuple[str, ...]:
    if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
        raise ValidationError(
            f"spec field {field!r}: expected a list of strings, got {values!r}"
        )
    return tuple(values)


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


def manifest_text(spec: SyntheticSpec) -> str:
    lines = [
        MANIFEST_HEADER,
        f"seed\t{spec.seed}",
        f"passed_count\t{spec.passed_count}",
        "cause_counts\t" + ",".join(str(c) for c in spec.cause_counts),
        f"noise_rate\t{spec.noise_rate}",
        f"lines_range\t{spec.lines_range[0]},{spec.lines_range[1]}",
        f"last_cause_contamination\t{spec.last_cause_contamination}",
    ]
    lines.extend(f"benign\t{t}" for t in spec.benign)
    for cause, group in enumerate(spec.markers):
        lines.extend(f"marker\t{cause}\t{t}" for t in group)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Manifest:
    seed: int
    passed_count: int
    cause_counts: tuple[int, ...]
    noise_rate: float
    lines_range: tuple[int, int]
    last_cause_contamination: int
    benign: tuple[str, ...]
    markers: tuple[tuple[int, str], ...] = field(default=())

    def markers_of(self, cause: int) -> tuple[str, ...]:
        return tuple(t for c, t in self.markers if c == cause)

    def marker_signatures(self) -> dict[str, int]:
        """First token of each marker template -> cause id."""
        return {t.split()[0]: c for c, t in self.markers}


def parse_manifest(path) -> Manifest:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != MANIFEST_HEADER:
        found = lines[0] if lines else "<empty>"
        raise ValidationError(f"manifest header: expected {MANIFEST_HEADER!r}, found {found!r}")
    fields: dict[str, str] = {}
    benign: list[str] = []
    markers: list[tuple[int, str]] = []
    for row in lines[1:]:
        if not row:
            continue
        key, _, value = row.partition("\t")
        if key == "benign":
            benign.append(value)
        elif key == "marker":
            cause_text, _, template = value.partition("\t")
            markers.append((int(cause_text), template))
        else:
            fields[key] = value
    try:
        lo, hi = fields["lines_range"].split(",")
        return Manifest(
            seed=int(fields["seed"]),
            passed_count=int(fields["passed_count"]),
            cause_counts=tuple(int(c) for c in fields["cause_counts"].split(",")),
            noise_rate=float(fields["noise_rate"]),
            lines_range=(int(lo), int(hi)),
            last_cause_contamination=int(fields["last_cause_contamination"]),
            benign=tuple(benign),
            markers=tuple(markers),
        )
    except KeyError as exc:
        raise ValidationError(f"manifest field {exc.args[0]!r} is missing") from None
    except ValueError as exc:
        raise ValidationError(f"manifest field parse error: {exc}") from None


def generate_synthetic(spec: SyntheticSpec, out_dir) -> Path:
    """Write the corpus directory tree and return the manifest path."""
    spec.validate()
    out = Path(out_dir)
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

    manifest_path = out / "manifest.txt"
    manifest_path.write_text(manifest_text(spec), encoding="utf-8")
    return manifest_path


def corpus_digest(root) -> str:
    """SHA-256 over every file in the corpus tree; used to check determinism."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
