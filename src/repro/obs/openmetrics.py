"""OpenMetrics text exposition for the metrics registry and windows.

Everything the repo measures lives in :mod:`repro.obs.metrics`'s
registry with a private ``sample()`` shape.  This module renders that
state — plus the per-window delta series from
:mod:`repro.obs.windows` — in the OpenMetrics text format, the
industry-standard scrape surface, so scorecard runs can be diffed,
graphed, or ingested by anything that reads Prometheus exports.

Subset implemented (deliberately small, fully validated):

* one ``# TYPE family kind`` line per family, families sorted by name;
* counter samples named ``family_total`` (registry counters already
  follow the ``_total`` convention, so the family drops the suffix);
* gauge samples named after their family;
* histogram samples as cumulative ``family_bucket{le="..."}`` rows,
  a terminal ``le="+Inf"`` bucket, then ``family_count`` and
  ``family_sum``;
* a final ``# EOF`` terminator (what distinguishes OpenMetrics from
  the older Prometheus text format).

Rendering is pure string work over already-deterministic state: no
timestamps are emitted (sim time is carried by explicit ``*_ns``
families instead), labels render sorted, and values format through one
shared function — so same-seed runs export byte-identical text, which
CI ``cmp``s.

:func:`validate_text` is the matching checker: it re-parses an
exposition and reports structural violations (missing ``# EOF``,
samples without a ``# TYPE``, non-cumulative or ``+Inf``-less
histograms, counter samples not named ``_total`` …).  The CI
``slo-smoke`` job round-trips the scorecard's export through
``python -m repro.obs.openmetrics FILE``, which exits non-zero on the
first violation.
"""

from __future__ import annotations

import sys
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, cast

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.windows import CROSS_WAIT_METRIC, WindowSnapshot

#: ``(sample_name, labels, value)`` — one exposition line.
Sample = Tuple[str, Dict[str, str], float]

#: ``(family_name, family_type, samples)`` — one ``# TYPE`` block.
Family = Tuple[str, str, List[Sample]]


def _escape_label(value: str) -> str:
    if "\\" in value or "\"" in value or "\n" in value:
        return (value.replace("\\", "\\\\").replace("\"", "\\\"")
                .replace("\n", "\\n"))
    return value


def _fmt_value(value: float) -> str:
    """Deterministic value text: integral floats render as integers."""
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite sample value {value!r} cannot be "
                         f"exported (cap before exporting)")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_text(items: Sequence[Tuple[str, str]]) -> str:
    """``{k="v",...}`` for label items already in name order."""
    if not items:
        return ""
    return "{" + ",".join([f'{k}="{_escape_label(str(v))}"'
                           for k, v in items]) + "}"


def _family_name(name: str, kind: str) -> str:
    """OpenMetrics family name: counters drop their ``_total`` suffix."""
    if kind == "counter" and name.endswith("_total"):
        return name[:-len("_total")]
    return name


def registry_families(registry: Optional[MetricsRegistry] = None,
                      extra_labels: Optional[Dict[str, str]] = None,
                      ) -> List[Family]:
    """Group a registry's instruments and collected counter and gauge
    samples into exposition families, sorted by name;
    :func:`render_families` puts each family's samples in order.

    ``extra_labels`` (e.g. ``{"arbiter": "temporal"}``) are folded into
    every sample — how the scorecard stamps each arbiter's sweep.
    """
    registry = registry if registry is not None else get_registry()
    extra = dict(extra_labels or {})
    families: Dict[Tuple[str, str], List[Sample]] = {}

    def scalar(name: str, kind: str, labels: Dict[str, str],
               value: float) -> None:
        family = _family_name(name, kind)
        families.setdefault((family, kind), []).append(
            (family + "_total" if kind == "counter" else family, labels,
             value))

    for sample in registry.collected():
        scalar(str(sample["name"]), str(sample["type"]),
               dict(cast(Dict[str, str], sample["labels"]), **extra),
               cast(float, sample["value"]))
    for instrument in registry.instruments():
        labels = dict(instrument.labels)
        labels.update(extra)
        if isinstance(instrument, Histogram):
            family = _family_name(instrument.name, "histogram")
            rows = families.setdefault((family, "histogram"), [])
            cumulative = 0
            for bound, count in zip(instrument.bounds, instrument.counts):
                cumulative += count
                rows.append((family + "_bucket",
                             dict(labels, le=_fmt_value(bound)),
                             float(cumulative)))
            rows.append((family + "_bucket", dict(labels, le="+Inf"),
                         float(instrument.count)))
            rows.append((family + "_count", labels, float(instrument.count)))
            rows.append((family + "_sum", labels, float(instrument.sum)))
        elif isinstance(instrument, Counter):
            scalar(instrument.name, "counter", labels, instrument.value)
        elif isinstance(instrument, Gauge):
            scalar(instrument.name, "gauge", labels, instrument.value)
    return [(name, kind, samples)
            for (name, kind), samples in sorted(families.items())]


def window_families(snapshots: Sequence[WindowSnapshot],
                    extra_labels: Optional[Dict[str, str]] = None,
                    ) -> List[Family]:
    """Per-window series as gauge families.

    * ``slo_window_end_ns`` — each window's closing sim timestamp, one
      sample per window;
    * ``slo_window_delta`` — the cross-tenant wait a victim (``tenant``)
      suffered on one ``resource`` in the window, one sample per pair
      that moved, labelled ``metric="interference_cross_tenant_wait_ns"``
      (the per-culprit breakdown is in the cumulative
      ``interference_wait_ns`` family);
    * ``slo_window_p99_ns`` — each delta histogram's in-window p99.
    """
    extra = dict(extra_labels or {})
    ends: List[Sample] = []
    deltas: List[Sample] = []
    p99s: List[Sample] = []
    for snap in snapshots:
        window = str(snap.index)
        ends.append(("slo_window_end_ns", dict(extra, window=window),
                     float(snap.end_ns)))
        for (resource, victim), delta in snap.cross_wait.items():
            deltas.append(("slo_window_delta",
                           dict(extra, window=window,
                                metric=CROSS_WAIT_METRIC, resource=resource,
                                tenant=victim), delta))
        for (name, labels), hist in snap.histograms.items():
            row = dict(extra, window=window, metric=name)
            row.update(labels)
            p99s.append(("slo_window_p99_ns", row, hist.p99))
    families: List[Family] = [("slo_window_end_ns", "gauge", ends)]
    if deltas:
        families.append(("slo_window_delta", "gauge", deltas))
    if p99s:
        families.append(("slo_window_p99_ns", "gauge", p99s))
    return families


def merge_families(families: Iterable[Family]) -> List[Family]:
    """Merge family lists that share ``(name, kind)`` into one list.

    The scorecard exports one exposition covering several arbiter runs:
    each run contributes the same family names (distinguished by an
    ``arbiter`` sample label), and OpenMetrics forbids repeating a
    ``# TYPE`` line — so samples are concatenated per family (and put
    in order once, by :func:`render_families`).  A name registered
    with two different kinds is a hard error (the same rule the
    registry itself enforces).
    """
    merged: Dict[str, Tuple[str, List[Sample]]] = {}
    for name, kind, samples in families:
        known = merged.get(name)
        if known is None:
            merged[name] = (kind, list(samples))
        elif known[0] != kind:
            raise ValueError(f"family {name!r} is both {known[0]} and "
                             f"{kind}")
        else:
            known[1].extend(samples)
    return [(name, kind, samples)
            for name, (kind, samples) in sorted(merged.items())]


_INF = float("inf")


def _sample_lines(samples: Iterable[Sample]) -> List[str]:
    """A family's exposition lines, in sample order.

    Samples sort by name, then by their labels other than ``le`` as
    ``(name, value)`` pairs, then by ``le`` as a number, so buckets
    keep their numeric order.  Each sample's labels are sorted once,
    for both its sort key and its label text.
    """
    rows = []
    for sample_name, labels, value in samples:
        items = sorted(labels.items())
        le = labels.get("le")
        if le is None:
            key = (sample_name, items, _INF)
        else:
            key = (sample_name, [item for item in items if item[0] != "le"],
                   _INF if le == "+Inf" else float(le))
        rows.append((key, f"{sample_name}{_label_text(items)} "
                          f"{_fmt_value(value)}"))
    rows.sort(key=itemgetter(0))
    return [line for _, line in rows]


def render_families(families: Iterable[Family]) -> str:
    lines: List[str] = []
    for name, kind, samples in families:
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(_sample_lines(samples))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render(registry: Optional[MetricsRegistry] = None,
           windows: Optional[Sequence[WindowSnapshot]] = None,
           extra_labels: Optional[Dict[str, str]] = None) -> str:
    """One complete OpenMetrics exposition: registry, then windows."""
    families = registry_families(registry, extra_labels=extra_labels)
    if windows:
        families.extend(window_families(windows, extra_labels=extra_labels))
    return render_families(families)


def write(path: str, registry: Optional[MetricsRegistry] = None,
          windows: Optional[Sequence[WindowSnapshot]] = None,
          extra_labels: Optional[Dict[str, str]] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(registry, windows=windows,
                        extra_labels=extra_labels))


# ----------------------------------------------------------------------
# Validation (the CI checker)
# ----------------------------------------------------------------------

_SUFFIXES = {"histogram": ("_bucket", "_count", "_sum"),
             "counter": ("_total",), "gauge": ("",)}


def _parse_sample(line: str) -> Optional[Tuple[str, Dict[str, str], str]]:
    """``name{labels} value`` → parts, or ``None`` when malformed."""
    brace = line.find("{")
    if brace >= 0:
        close = line.rfind("}")
        if close < brace:
            return None
        name = line[:brace]
        label_text = line[brace + 1:close]
        rest = line[close + 1:].strip()
        labels: Dict[str, str] = {}
        if label_text:
            for part in label_text.split('",'):
                if "=" not in part:
                    return None
                key, _, raw = part.partition("=")
                labels[key.strip()] = raw.strip().strip('"')
    else:
        name, _, rest = line.partition(" ")
        labels = {}
        rest = rest.strip()
    if not name or not rest or " " in rest:
        return None
    return name, labels, rest


def validate_text(text: str) -> List[str]:
    """Structural OpenMetrics checks; returns a list of violations."""
    errors: List[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        errors.append("exposition must end with '# EOF'")
    if not text.endswith("\n"):
        errors.append("exposition must end with a trailing newline")
    types: Dict[str, str] = {}
    bucket_state: Dict[str, Tuple[float, float]] = {}
    seen_counts: Dict[str, bool] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in _SUFFIXES:
                errors.append(f"line {lineno}: malformed TYPE line")
                continue
            if parts[2] in types:
                errors.append(f"line {lineno}: duplicate family "
                              f"{parts[2]!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        parsed = _parse_sample(line)
        if parsed is None:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name, labels, value_text = parsed
        try:
            value = float(value_text)
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value "
                          f"{value_text!r}")
            continue
        family = _resolve_family(name, types)
        if family is None:
            errors.append(f"line {lineno}: sample {name!r} has no "
                          f"preceding # TYPE")
            continue
        kind = types[family]
        if kind == "counter":
            if not name.endswith("_total"):
                errors.append(f"line {lineno}: counter sample {name!r} "
                              f"must end in _total")
            if value < 0:
                errors.append(f"line {lineno}: negative counter")
        elif kind == "histogram" and name.endswith("_bucket"):
            le = labels.get("le")
            if le is None:
                errors.append(f"line {lineno}: histogram bucket without "
                              f"le label")
                continue
            series = family + _label_text(
                sorted((k, v) for k, v in labels.items() if k != "le"))
            le_value = float("inf") if le == "+Inf" else float(le)
            prev_le, prev_cum = bucket_state.get(
                series, (float("-inf"), 0.0))
            if le_value <= prev_le:
                errors.append(f"line {lineno}: bucket le={le} out of "
                              f"order for {series}")
            if value < prev_cum:
                errors.append(f"line {lineno}: bucket counts not "
                              f"cumulative for {series}")
            bucket_state[series] = (le_value, value)
            if le == "+Inf":
                seen_counts[series] = True
    for series, (last_le, _) in bucket_state.items():
        if last_le != float("inf") or not seen_counts.get(series):
            errors.append(f"histogram {series} has no le=\"+Inf\" bucket")
    return errors


def _resolve_family(sample_name: str, types: Dict[str, str],
                    ) -> Optional[str]:
    for family, kind in types.items():
        for suffix in _SUFFIXES[kind]:
            if sample_name == family + suffix:
                return family
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.obs.openmetrics FILE`` — the CI checker."""
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print("usage: python -m repro.obs.openmetrics FILE",
              file=sys.stderr)
        return 2
    try:
        with open(args[0], "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args[0]}: {exc}", file=sys.stderr)
        return 2
    errors = validate_text(text)
    for error in errors:
        print(f"openmetrics: {error}", file=sys.stderr)
    if not errors:
        samples = sum(1 for line in text.splitlines()
                      if line and not line.startswith("#"))
        print(f"openmetrics: OK ({samples} samples)")
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
