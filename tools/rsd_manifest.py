#!/usr/bin/env python3
"""Validate and render rsd_bench run manifests (schema rsd-bench-manifest-v4).

Usage:
  rsd_manifest.py check MANIFEST.json
  rsd_manifest.py report MANIFEST.json [EXPERIMENT ...]

Both subcommands exit 1 with a one-line diagnostic on the first problem.

check validates the whole manifest (exit 0 on success):
  * the file is valid JSON with schema "rsd-bench-manifest-v4";
  * top-level run parameters (threads/runs/seed/results_dir) are present
    and well-typed; trace_dir, when present, is a non-empty string;
  * every experiment entry has a name, a tag list, an "ok"/"failed"
    status (with an error string when failed), finite wall_s when
    present, a csv path list, and a metrics object;
  * metrics values are either numbers (counters) or histogram objects
    with count/sum/mean/min/max plus interpolated p50/p90/p99 quantiles
    satisfying min <= p50 <= p90 <= p99 <= max, all finite;
  * link-network counters (metrics named "net.*") are non-negative;
  * the partitioned engine's pardes.horizon_gain counter is non-negative —
    the lookahead matrix can only widen epoch horizons, so a negative gain
    means the horizon computation regressed;
  * a successful fabric_compare entry carries numeric net.transfers,
    net.reconfigs, net.express and net.route_hits, and a successful
    multichassis_contention entry carries numeric net.nic_transfers and
    net.fibre_busy_ns — both experiments drive those links by
    construction, so a missing counter means they never did;
  * attribution blocks decompose a positive makespan into seven
    non-negative components (COMPONENTS) that sum to it exactly, and each
    banded entry carries a finite slack_share plus an ordered
    [lower, upper] band;
  * a successful attribution_fabrics entry records at least one
    attribution with a band (the slacked replays).

report prints, for every experiment that recorded an "attribution" block
(all of them by default, or just the named ones), the makespan and the
percentage of it attributed to each critical-path component, plus — for
slacked entries — the observed slack-wake share against its predicted
Eq 2-3 band. Experiments that drove the partitioned engine or the modeled
links also get an engine line: epochs, the lookahead-stall fraction
(stalled partition-epochs over partition-epochs), the accumulated horizon
gain, and the express-path share of network transfers. It exits 0 only
when every selected experiment carries at least one attribution and every
banded share lies inside its band.
"""

import json
import math
import sys

SCHEMA = "rsd-bench-manifest-v4"

# (manifest key, report label) of the seven critical-path components.
COMPONENTS = (
    ("compute_ns", "compute"),
    ("reconfig_ns", "reconfig"),
    ("nic_ns", "nic"),
    ("fabric_ns", "fabric"),
    ("queue_ns", "queue"),
    ("wake_ns", "wake"),
    ("idle_ns", "idle"),
)

# Counters an "ok" entry of these experiments must carry, and why.
REQUIRED_COUNTERS = {
    "fabric_compare": (
        ("net.transfers", "net.reconfigs", "net.express", "net.route_hits"),
        "the Network flushes link counters at quiesce boundaries"),
    "multichassis_contention": (
        ("net.nic_transfers", "net.fibre_busy_ns"),
        "cross-chassis traffic must traverse the NIC/fibre links"),
}

HISTOGRAM_KEYS = ("count", "sum", "mean", "min", "max", "p50", "p90", "p99")

prog = "rsd_manifest"


def fail(msg):
    print(f"{prog}: {msg}", file=sys.stderr)
    sys.exit(1)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load(path):
    """Read a manifest and check its schema; the one loader both use."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        fail(f"{path} is not valid JSON: {err}")
    if not isinstance(manifest, dict):
        fail("top level must be an object")
    schema = manifest.get("schema")
    if schema != SCHEMA:
        fail(f"unexpected schema {schema!r} (want {SCHEMA})")
    return manifest


# --- check ------------------------------------------------------------------

def check_finite_number(value, where):
    if not is_number(value):
        fail(f"{where}: expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        fail(f"{where}: non-finite value {value!r}")


def check_metrics(metrics, where):
    if not isinstance(metrics, dict):
        fail(f"{where}: metrics must be an object")
    for name, value in metrics.items():
        if not name:
            fail(f"{where}: empty metric name")
        if isinstance(value, dict):
            for key in HISTOGRAM_KEYS:
                if key not in value:
                    fail(f"{where}: histogram {name!r} missing {key!r}")
                check_finite_number(value[key], f"{where}: {name}.{key}")
            if value["count"] < 0 or value["min"] > value["max"]:
                fail(f"{where}: histogram {name!r} is inconsistent")
            if not (value["min"] <= value["p50"] <= value["p90"] <= value["p99"]
                    <= value["max"]):
                fail(f"{where}: histogram {name!r} quantiles are not ordered "
                     "within [min, max]")
        else:
            check_finite_number(value, f"{where}: {name}")
            if name.startswith("net.") and value < 0:
                fail(f"{where}: link-network counter {name!r} is negative")
            if name == "pardes.horizon_gain" and value < 0:
                fail(f"{where}: {name!r} is negative (the lookahead matrix "
                     "can only widen horizons over the uniform floor)")


def check_attribution(entries, where):
    """Validate an attribution block; return how many entries carry a band."""
    if not isinstance(entries, list) or not entries:
        fail(f"{where}: attribution must be a non-empty list")
    banded = 0
    for i, entry in enumerate(entries):
        at = f"{where}: attribution[{i}]"
        if not isinstance(entry, dict):
            fail(f"{at}: expected an object")
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            fail(f"{at}: missing label")
        at = f"{where}: attribution[{i}] ({label})"
        makespan = entry.get("makespan_ns")
        check_finite_number(makespan, f"{at}: makespan_ns")
        if makespan <= 0:
            fail(f"{at}: makespan_ns must be positive")
        components = entry.get("components")
        if not isinstance(components, dict):
            fail(f"{at}: missing components object")
        total = 0
        for key, _ in COMPONENTS:
            if key not in components:
                fail(f"{at}: components missing {key!r}")
            check_finite_number(components[key], f"{at}: components.{key}")
            if components[key] < 0:
                fail(f"{at}: components.{key} is negative")
            total += components[key]
        if total != makespan:
            fail(f"{at}: components sum to {total}, not the makespan "
                 f"{makespan} (the decomposition must be exact)")
        if ("slack_share" in entry) != ("band" in entry):
            fail(f"{at}: slack_share and band must appear together")
        if "band" in entry:
            banded += 1
            check_finite_number(entry["slack_share"], f"{at}: slack_share")
            if entry["slack_share"] < 0:
                fail(f"{at}: slack_share is negative")
            band = entry["band"]
            if not isinstance(band, list) or len(band) != 2:
                fail(f"{at}: band must be [lower, upper]")
            check_finite_number(band[0], f"{at}: band lower")
            check_finite_number(band[1], f"{at}: band upper")
            if band[0] > band[1]:
                fail(f"{at}: band lower {band[0]} exceeds upper {band[1]}")
    return banded


def check_experiment(entry, index):
    where = f"experiments[{index}]"
    if not isinstance(entry, dict):
        fail(f"{where}: expected an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        fail(f"{where}: missing experiment name")
    where = f"experiments[{index}] ({name})"
    tags = entry.get("tags")
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        fail(f"{where}: tags must be a list of strings")
    status = entry.get("status")
    if status not in ("ok", "failed"):
        fail(f"{where}: status must be 'ok' or 'failed', got {status!r}")
    if status == "failed" and not isinstance(entry.get("error"), str):
        fail(f"{where}: failed entry must carry an error string")
    if "wall_s" in entry:
        check_finite_number(entry["wall_s"], f"{where}: wall_s")
        if entry["wall_s"] < 0:
            fail(f"{where}: negative wall_s")
    csv = entry.get("csv")
    if not isinstance(csv, list) or not all(isinstance(p, str) for p in csv):
        fail(f"{where}: csv must be a list of path strings")
    if "metrics" not in entry:
        fail(f"{where}: missing metrics object (manifest-v4 requires one)")
    check_metrics(entry["metrics"], where)
    if status == "ok" and name in REQUIRED_COUNTERS:
        counters, why = REQUIRED_COUNTERS[name]
        for counter in counters:
            if not is_number(entry["metrics"].get(counter)):
                fail(f"{where}: ok entry is missing {counter!r} ({why})")
    banded = 0
    if "attribution" in entry:
        banded = check_attribution(entry["attribution"], where)
    if name == "attribution_fabrics" and status == "ok":
        if "attribution" not in entry:
            fail(f"{where}: ok entry must record attributions")
        if banded == 0:
            fail(f"{where}: no attribution carries an Eq 2-3 band (the "
                 "slacked replays must)")


def check(manifest):
    for key in ("threads", "runs"):
        value = manifest.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            fail(f"{key} must be a non-negative integer, got {value!r}")
    if "seed" not in manifest:
        fail("missing seed")
    if not isinstance(manifest.get("results_dir"), str):
        fail("results_dir must be a string")
    if "trace_dir" in manifest:
        trace_dir = manifest["trace_dir"]
        if not isinstance(trace_dir, str) or not trace_dir:
            fail("trace_dir, when present, must be a non-empty string")
    experiments = manifest.get("experiments")
    if not isinstance(experiments, list):
        fail("experiments must be a list")
    for i, entry in enumerate(experiments):
        check_experiment(entry, i)
    print(f"{prog}: OK ({len(experiments)} experiments, schema {SCHEMA})")


# --- report -----------------------------------------------------------------

def render_entry(experiment, entry):
    """Print one attribution entry; return False if its band check fails."""
    makespan = entry["makespan_ns"]
    components = entry["components"]
    print(f"  {experiment}/{entry['label']}: makespan {makespan / 1e6:.3f} ms")
    shares = "  ".join(
        f"{label} {100.0 * components[key] / makespan:.1f}%"
        for key, label in COMPONENTS
    )
    print(f"    {shares}")
    if "band" not in entry:
        return True
    share = entry["slack_share"]
    lower, upper = entry["band"]
    within = lower <= share <= upper
    verdict = "" if within else "  (OUTSIDE BAND)"
    print(f"    slack share {share:.4f} vs Eq 2-3 band "
          f"[{lower:.4f}, {upper:.4f}]{verdict}")
    return within


def render_engine_metrics(experiment, metrics):
    """Print the partitioned-engine / network fast-path line, if any."""
    if not isinstance(metrics, dict):
        return
    epochs = metrics.get("pardes.epochs")
    stalls = metrics.get("pardes.lookahead_stalls")
    gain = metrics.get("pardes.horizon_gain")
    transfers = metrics.get("net.transfers")
    express = metrics.get("net.express")
    parts = []
    if isinstance(epochs, (int, float)) and epochs > 0:
        parts.append(f"epochs {epochs:.0f}")
        # pardes.partition_events observes one value per partition per
        # engine run, so stalls / (epochs * count) is the exact stall
        # fraction for a single-engine experiment and a fleet-level
        # approximation when several engines flushed into one entry.
        events = metrics.get("pardes.partition_events")
        if isinstance(stalls, (int, float)) and isinstance(events, dict):
            partitions = events.get("count", 0)
            if partitions > 0:
                parts.append(
                    f"stall fraction {stalls / (epochs * partitions):.4f}")
        if isinstance(gain, (int, float)):
            parts.append(f"horizon gain {gain / 1e6:.2f} ms")
    if isinstance(transfers, (int, float)) and transfers > 0 \
            and isinstance(express, (int, float)):
        parts.append(f"express share {express / transfers:.1%}")
    if parts:
        print(f"  {experiment}: engine {'  '.join(parts)}")


def report(path, manifest, selected):
    experiments = manifest.get("experiments", [])
    names = {e.get("name") for e in experiments}
    for name in selected:
        if name not in names:
            fail(f"no experiment {name!r} in {path}")

    printed = 0
    ok = True
    print("[report] critical-path attribution")
    for entry in experiments:
        name = entry.get("name", "?")
        if selected and name not in selected:
            continue
        for attribution in entry.get("attribution", []):
            try:
                ok &= render_entry(name, attribution)
            except (KeyError, TypeError, ZeroDivisionError) as err:
                fail(f"{name}: malformed attribution entry ({err!r}); run "
                     "rsd_manifest.py check for a precise diagnostic")
            printed += 1
        render_engine_metrics(name, entry.get("metrics"))

    if printed == 0:
        which = " ".join(selected) if selected else "any experiment"
        fail(f"no attribution recorded for {which} — run an experiment that "
             "records one (e.g. rsd_bench attribution_fabrics)")
    if not ok:
        fail("a slack-wake share fell outside its predicted Eq 2-3 band")
    print(f"[report] {printed} attribution entr"
          f"{'y' if printed == 1 else 'ies'}, all bands hold")


def main(argv):
    global prog
    command = argv[1] if len(argv) > 1 else None
    if command == "check" and len(argv) == 3:
        prog = "rsd_manifest check"
        check(load(argv[2]))
    elif command == "report" and len(argv) >= 3:
        prog = "rsd_manifest report"
        report(argv[2], load(argv[2]), argv[3:])
    else:
        fail("usage: rsd_manifest.py check MANIFEST.json\n"
             "       rsd_manifest.py report MANIFEST.json [EXPERIMENT ...]")


if __name__ == "__main__":
    main(sys.argv)
