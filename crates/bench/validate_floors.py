#!/usr/bin/env python3
"""Validate every benchmark record against its checked-in perf floor.

The throughput benches (`sim_throughput`, `island_scaling`,
`obs_overhead`, ...) write machine-readable records to
``BENCH_<name>.json`` at the workspace root. This script pairs each
record with its floor file in ``crates/bench/floors/<name>.json`` and
enforces the floor — one place, one schema, runnable locally exactly as
CI runs it:

    cargo bench --workspace -- --test   # writes the BENCH_*.json records
    python3 crates/bench/validate_floors.py

A floor file is declarative::

    { "checks": { "<field>": { <check...> }, ... } }

where a check is one of

``{"equals": v}``
    the record field must equal ``v`` exactly;
``{"min": x}``
    the record field must be ``>= x`` (events/sec floors, speedups,
    coverage percentages);
``{"max": x}``
    the record field must be ``<= x`` (overhead ceilings);
``{"max_ratio_of": ["<other_field>", r]}``
    the record field must be ``<= record[other_field] * r`` (budget
    parity);
``{"min_ratio_of": ["<other_field>", r]}``
    the record field must be ``>= record[other_field] * r`` (a speedup
    floor that scales with the worker count);
``..., "gate": "<field>"``
    the check applies only when ``record[<field>]`` is ``"ok"``; a value
    starting with ``"skipped"`` skips the check and reports why (e.g. a
    wall-clock speedup gate on a box with no CPUs to parallelize over).

Every record must additionally carry the machine context
(``cpus``, ``dmx_threads`` — stamped by ``dmx_bench::write_bench_json``)
and a ``bench`` field matching its file name. Floors without a record
fail (the bench did not run); records without a floor are reported as
unchecked. Stdlib only; exit code 0 iff every floor holds.
"""

import json
import sys
from pathlib import Path


def fail(errors, msg):
    errors.append(msg)
    print(f"  FAIL {msg}")


def check_field(errors, name, doc, field, spec):
    gate = spec.get("gate")
    if gate is not None:
        state = doc.get(gate)
        if state != "ok":
            if isinstance(state, str) and state.startswith("skipped"):
                print(f"  skip {field}: gate {gate} = {state!r}")
                return
            fail(errors, f"{name}: gate field {gate!r} is {state!r}, expected 'ok' or 'skipped...'")
            return
    if field not in doc:
        fail(errors, f"{name}: record has no field {field!r}")
        return
    got = doc[field]
    if "equals" in spec:
        want = spec["equals"]
        if got != want or isinstance(got, bool) != isinstance(want, bool):
            fail(errors, f"{name}: {field} = {got!r}, floor requires {want!r}")
            return
    if "min" in spec:
        floor = spec["min"]
        if not isinstance(got, (int, float)) or isinstance(got, bool) or got < floor:
            fail(errors, f"{name}: {field} = {got!r} below floor {floor}")
            return
    if "max" in spec:
        ceiling = spec["max"]
        if not isinstance(got, (int, float)) or isinstance(got, bool) or got > ceiling:
            fail(errors, f"{name}: {field} = {got!r} above ceiling {ceiling}")
            return
    if "max_ratio_of" in spec:
        other, ratio = spec["max_ratio_of"]
        if other not in doc:
            fail(errors, f"{name}: ratio base field {other!r} missing from record")
            return
        limit = doc[other] * ratio
        if got > limit:
            fail(errors, f"{name}: {field} = {got!r} exceeds {ratio} x {other} ({limit:g})")
            return
    if "min_ratio_of" in spec:
        other, ratio = spec["min_ratio_of"]
        if other not in doc:
            fail(errors, f"{name}: ratio base field {other!r} missing from record")
            return
        limit = doc[other] * ratio
        if not isinstance(got, (int, float)) or isinstance(got, bool) or got < limit:
            fail(errors, f"{name}: {field} = {got!r} below {ratio} x {other} ({limit:g})")
            return
    print(f"  ok   {field} = {got!r}")


def validate(errors, name, record_path, floor_path):
    print(f"{name}: {record_path.name} vs floors/{floor_path.name}")
    try:
        doc = json.loads(record_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(errors, f"{name}: unreadable record {record_path}: {e}")
        return
    floor = json.loads(floor_path.read_text())

    # Universal checks: the record identifies itself and its machine.
    if doc.get("bench") != name:
        fail(errors, f"{name}: record bench field is {doc.get('bench')!r}")
    for field in ("cpus", "dmx_threads"):
        v = doc.get(field)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            fail(errors, f"{name}: machine context field {field!r} is {v!r}, expected int >= 1")
        else:
            print(f"  ok   {field} = {v}")

    for field, spec in floor["checks"].items():
        check_field(errors, name, doc, field, spec)


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[2]
    floors_dir = Path(__file__).resolve().parent / "floors"
    errors = []

    floors = sorted(floors_dir.glob("*.json"))
    if not floors:
        fail(errors, f"no floor files in {floors_dir}")
    checked = set()
    for floor_path in floors:
        name = floor_path.stem
        record_path = root / f"BENCH_{name}.json"
        if not record_path.exists():
            fail(errors, f"{name}: no record {record_path.name} — did the bench run?")
            continue
        checked.add(record_path.name)
        validate(errors, name, record_path, floor_path)

    for record_path in sorted(root.glob("BENCH_*.json")):
        if record_path.name not in checked:
            print(f"note: {record_path.name} has no floor file — unchecked")

    if errors:
        print(f"\n{len(errors)} floor violation(s)")
        return 1
    print(f"\nall floors hold ({len(floors)} benches)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
