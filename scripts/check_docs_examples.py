#!/usr/bin/env python3
"""Validate every fenced ``json`` block in docs/*.md against the wire schemas.

Usage:
    check_docs_examples.py [--docs DIR] [--self-check]

docs/PROTOCOL.md promises that its examples cannot drift from the
implementation; this script is the teeth. It extracts every fenced
``json`` code block from the markdown files, requires each to parse,
and — when a block carries a ``format`` envelope it knows — validates
it against the v1 schema: every required field present, every present
field known (unknown keys are rejected, so a renamed field fails BOTH
ways: the old name goes missing and the new name is unknown), types as
specified, and the version pinned at the documented maximum
(newer-version rejection, the same rule io/serialize's checkEnvelope
enforces in C++). Control frames ({"op": ...}) are checked against the
verb set. Bare JSON blocks (no envelope, no op) only need to parse.

--self-check runs the validator against built-in good examples plus
deliberate mutations (renamed field, unknown field, bumped version,
missing required field, malformed text) and fails unless every
mutation is caught — the negative test the CI wiring relies on.

Exit codes: 0 all blocks valid, 1 any failure, 64 usage error.
"""

import argparse
import json
import re
import sys
from pathlib import Path

WIRE_VERSION = 1

STATUS_CODES = {
    "ok",
    "invalid_argument",
    "not_found",
    "already_exists",
    "internal",
    "deadline_exceeded",
    "resource_exhausted",
}

CONTROL_VERBS = {"ping", "stats", "shutdown"}

BOOL = (bool,)
INT = (int,)           # bool is excluded explicitly in check_type
NUM = (int, float)
STR = (str,)
OBJ = (dict,)

# Schemas: field -> (types, nullable). Split into required/optional so
# both a missing required field and an unknown field are failures.
SCHEMAS = {
    "hatt-compile-request": {
        "required": {
            "format": (STR, False),
            "version": (INT, False),
            "input": (STR, False),
            "input_format": (STR, False),
            "mapping": (STR, False),
            "out_dir": (STR, False),
            "emit_qubit": (BOOL, False),
            "max_terms": (INT, False),
            "max_modes": (INT, False),
            "timeout_seconds": (NUM, False),
            "fallback": (BOOL, False),
        },
        # Added within v1: writers may omit them (jobs is a retired
        # worker-cap hint, accepted and ignored; absent device =
        # architecture-agnostic compile).
        "optional": {
            "jobs": (INT, False),
            "device": (STR, False),
        },
    },
    "hatt-compile-response": {
        "required": {
            "format": (STR, False),
            "version": (INT, False),
            "stem": (STR, False),
            "input_format": (STR, False),
            "modes": (INT, False),
            "fermion_terms": (INT, False),
            "majorana_monomials": (INT, False),
            "content_hash": (STR, False),
            "num_qubits": (INT, False),
            "pauli_weight": (INT, True),
            "qubit_terms": (INT, True),
            "max_imag_coeff": (NUM, True),
            "candidates": (INT, True),
            "cache_hit": (BOOL, False),
            "cache_tier": (STR, True),
            "degraded": (BOOL, False),
            "quarantined_cache": (BOOL, False),
            "seconds": (NUM, False),
            "cache_seconds": (NUM, False),
        },
        # Added within v1: the device block is emitted only when the
        # request carried a device (absent = architecture-agnostic).
        "optional": {
            "device": (STR, False),
            "routed_cnots": (INT, True),
            "routed_u3": (INT, True),
            "routed_depth": (INT, True),
            "routed_swaps": (INT, True),
        },
    },
    "hatt-status": {
        "required": {
            "format": (STR, False),
            "version": (INT, False),
            "ok": (BOOL, False),
            "code": (STR, False),
            "message": (STR, False),
        },
        "optional": {
            "op": (STR, False),
        },
    },
    "hatt-stats": {
        "required": {
            "format": (STR, False),
            "version": (INT, False),
            "build": (OBJ, False),
            "metrics": (OBJ, False),
        },
        # Contextual parse-summary fields hattc stats --json adds for a
        # single input; the daemon omits them.
        "optional": {
            "input": (STR, False),
            "input_format": (STR, False),
            "modes": (INT, False),
            "fermion_terms": (INT, False),
            "majorana_monomials": (INT, False),
            "max_degree": (INT, False),
            "total_indices": (INT, False),
            "constant_term": (NUM, False),
            "content_hash": (STR, False),
        },
    },
}

BUILD_FIELDS = {"git_sha", "compiler", "build_type", "flags"}
TIMING_FIELDS = {"count", "total_seconds", "min_seconds", "max_seconds"}


def check_type(value, types, nullable):
    if value is None:
        return nullable
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, tuple(t for t in types if t is not bool))


def validate_envelope(doc, errors):
    """Validate one format-carrying document; append messages to errors."""
    fmt = doc.get("format")
    schema = SCHEMAS.get(fmt)
    if schema is None:
        errors.append(f"unknown format {fmt!r}")
        return
    version = doc.get("version")
    if not isinstance(version, int) or isinstance(version, bool):
        errors.append("version must be an integer")
    elif version > WIRE_VERSION:
        errors.append(
            f"version {version} is newer than the documented "
            f"maximum {WIRE_VERSION} (newer-version rejection)")
    elif version < 1:
        errors.append(f"version {version} is not a valid version")

    known = dict(schema["required"])
    known.update(schema["optional"])
    for key in schema["required"]:
        if key not in doc:
            errors.append(f"{fmt}: missing required field {key!r}")
    for key, value in doc.items():
        if key == "version":
            continue
        if key not in known:
            errors.append(f"{fmt}: unknown field {key!r}")
            continue
        types, nullable = known[key]
        if not check_type(value, types, nullable):
            errors.append(f"{fmt}: field {key!r} has wrong type "
                          f"({type(value).__name__})")

    # Format-specific shape checks.
    if fmt == "hatt-status" and isinstance(doc.get("code"), str):
        if doc["code"] not in STATUS_CODES:
            errors.append(f"hatt-status: unknown code {doc['code']!r}")
        if isinstance(doc.get("ok"), bool):
            if doc["ok"] != (doc["code"] == "ok"):
                errors.append("hatt-status: ok flag contradicts code")
    if fmt == "hatt-compile-response":
        ch = doc.get("content_hash")
        if isinstance(ch, str) and not re.fullmatch(r"[0-9a-f]{1,16}", ch):
            errors.append(f"content_hash {ch!r} is not lowercase hex")
        routed = [k for k in doc
                  if k.startswith("routed_") and k in schema["optional"]]
        if routed and "device" not in doc:
            errors.append(
                "routed_* fields are only emitted alongside 'device' "
                f"(found {sorted(routed)} without it)")
    if fmt == "hatt-stats":
        build = doc.get("build")
        if isinstance(build, dict):
            for key in BUILD_FIELDS - build.keys():
                errors.append(f"build: missing field {key!r}")
            for key in build.keys() - BUILD_FIELDS:
                errors.append(f"build: unknown field {key!r}")
        metrics = doc.get("metrics")
        if isinstance(metrics, dict):
            for key in metrics.keys() - {"deterministic", "volatile"}:
                errors.append(f"metrics: unknown section {key!r}")
            for key in {"deterministic", "volatile"} - metrics.keys():
                errors.append(f"metrics: missing section {key!r}")
            det = metrics.get("deterministic")
            if isinstance(det, dict):
                for name, count in det.items():
                    if (not isinstance(count, int)
                            or isinstance(count, bool) or count < 0):
                        errors.append(
                            f"deterministic counter {name!r} must be a "
                            "non-negative integer")
            vol = metrics.get("volatile")
            if isinstance(vol, dict):
                for name, rec in vol.items():
                    if (not isinstance(rec, dict)
                            or set(rec) != TIMING_FIELDS):
                        errors.append(
                            f"volatile timing {name!r} must have exactly "
                            f"{sorted(TIMING_FIELDS)}")


def validate_block(text):
    """Validate one fenced block's text. Returns a list of error strings."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"does not parse as JSON: {exc}"]
    if isinstance(doc, dict) and "format" in doc:
        errors = []
        validate_envelope(doc, errors)
        return errors
    if isinstance(doc, dict) and "op" in doc:
        verb = doc["op"]
        if verb not in CONTROL_VERBS:
            return [f"unknown control verb {verb!r} "
                    f"(expected one of {sorted(CONTROL_VERBS)})"]
    return []


FENCE_RE = re.compile(r"^```json\s*$")
FENCE_END_RE = re.compile(r"^```\s*$")


def extract_json_blocks(text):
    """Yield (start_line, block_text) for every fenced json block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if FENCE_RE.match(lines[i]):
            start = i + 2  # 1-based line of the block's first line
            body = []
            i += 1
            while i < len(lines) and not FENCE_END_RE.match(lines[i]):
                body.append(lines[i])
                i += 1
            yield start, "\n".join(body)
        i += 1


def check_docs(docs_dir):
    failures = 0
    blocks = 0
    for path in sorted(Path(docs_dir).glob("*.md")):
        for line, body in extract_json_blocks(path.read_text()):
            blocks += 1
            for message in validate_block(body):
                failures += 1
                print(f"FAIL {path}:{line}: {message}")
    if blocks == 0:
        print(f"FAIL {docs_dir}: no fenced json blocks found "
              "(extraction broke?)")
        return 1
    print(f"checked {blocks} fenced json blocks in {docs_dir}: "
          f"{failures} failure(s)")
    return 1 if failures else 0


# --------------------------------------------------------- self-check

GOOD_EXAMPLES = {
    "hatt-compile-request": {
        "format": "hatt-compile-request", "version": 1,
        "input": "examples/data/h2.ops", "input_format": "ops",
        "mapping": "hatt", "out_dir": "runs/h2", "emit_qubit": True,
        "max_terms": 0, "max_modes": 0, "timeout_seconds": 0.0,
        "fallback": False, "jobs": 0,
    },
    "hatt-compile-response": {
        "format": "hatt-compile-response", "version": 1, "stem": "h2",
        "input_format": "ops", "modes": 4, "fermion_terms": 29,
        "majorana_monomials": 15, "content_hash": "388eb307312bf8c0",
        "num_qubits": 4, "pauli_weight": 32, "qubit_terms": 14,
        "max_imag_coeff": 0.0, "candidates": 100, "cache_hit": False,
        "cache_tier": None, "degraded": False,
        "quarantined_cache": False, "seconds": 1e-4,
        "cache_seconds": 1e-5,
    },
    "hatt-status": {
        "format": "hatt-status", "version": 1, "ok": False,
        "code": "invalid_argument", "message": "bad frame",
    },
    "hatt-stats": {
        "format": "hatt-stats", "version": 1,
        "build": {"git_sha": "abc1234", "compiler": "GNU 12",
                  "build_type": "Release", "flags": "-O2"},
        "metrics": {
            "deterministic": {"server.frames": 3},
            "volatile": {"compile.seconds": {
                "count": 1, "total_seconds": 0.1,
                "min_seconds": 0.1, "max_seconds": 0.1}},
        },
    },
}


def expect(condition, what, failures):
    if not condition:
        print(f"SELF-CHECK FAIL: {what}")
        failures.append(what)


def self_check():
    failures = []
    for fmt, doc in GOOD_EXAMPLES.items():
        errors = validate_block(json.dumps(doc))
        expect(errors == [],
               f"pristine {fmt} example must pass (got {errors})",
               failures)

    # A renamed field must fail — the negative test the CI wiring
    # relies on: the old name goes missing AND the new name is unknown.
    renamed = dict(GOOD_EXAMPLES["hatt-compile-request"])
    renamed["source"] = renamed.pop("input")
    errors = validate_block(json.dumps(renamed))
    expect(any("missing required field 'input'" in e for e in errors),
           "renamed field must be reported missing", failures)
    expect(any("unknown field 'source'" in e for e in errors),
           "renamed field must be reported unknown", failures)

    # An extra field alone must fail (schema additions go through the
    # documented optional-with-default route, not silently).
    extra = dict(GOOD_EXAMPLES["hatt-compile-response"])
    extra["swiftness"] = 11
    expect(any("unknown field 'swiftness'" in e
               for e in validate_block(json.dumps(extra))),
           "unknown field must fail", failures)

    # A device-aware response must pass, but an orphan routed block
    # (routed_* without device) must fail the shape check.
    devresp = dict(GOOD_EXAMPLES["hatt-compile-response"])
    devresp.update({"device": "montreal", "routed_cnots": 52,
                    "routed_u3": 59, "routed_depth": 68,
                    "routed_swaps": 2})
    errors = validate_block(json.dumps(devresp))
    expect(errors == [],
           f"device-aware response must pass (got {errors})", failures)
    del devresp["device"]
    expect(any("alongside 'device'" in e
               for e in validate_block(json.dumps(devresp))),
           "routed block without device must fail", failures)

    # A newer version must fail (newer-version rejection).
    newer = dict(GOOD_EXAMPLES["hatt-compile-request"])
    newer["version"] = 2
    expect(any("newer than" in e
               for e in validate_block(json.dumps(newer))),
           "newer version must fail", failures)

    # A dropped required field must fail.
    dropped = dict(GOOD_EXAMPLES["hatt-status"])
    del dropped["code"]
    expect(any("missing required field 'code'" in e
               for e in validate_block(json.dumps(dropped))),
           "dropped required field must fail", failures)

    # Wrong types, bad status codes, malformed text must fail.
    badtype = dict(GOOD_EXAMPLES["hatt-compile-request"])
    badtype["emit_qubit"] = "yes"
    expect(validate_block(json.dumps(badtype)) != [],
           "wrong field type must fail", failures)
    badcode = dict(GOOD_EXAMPLES["hatt-status"])
    badcode["code"] = "tried_hard"
    expect(validate_block(json.dumps(badcode)) != [],
           "unknown status code must fail", failures)
    expect(validate_block("{ not json") != [],
           "malformed JSON must fail", failures)
    expect(validate_block('{"op": "selfdestruct"}') != [],
           "unknown control verb must fail", failures)

    # The markdown extractor finds fenced blocks with line numbers.
    md = "# t\n\n```json\n{\"op\": \"ping\"}\n```\n\ntext\n"
    found = list(extract_json_blocks(md))
    expect(found == [(4, '{"op": "ping"}')],
           f"extractor must find the fenced block (got {found})",
           failures)

    if failures:
        print(f"self-check: {len(failures)} failure(s)")
        return 1
    print("self-check OK: good examples pass, every mutation is caught")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="validate fenced json blocks in docs/*.md")
    parser.add_argument(
        "--docs",
        default=str(Path(__file__).resolve().parent.parent / "docs"),
        help="directory holding the markdown files (default: repo docs/)")
    parser.add_argument("--self-check", action="store_true",
                        help="validate the validator and exit")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if not Path(args.docs).is_dir():
        print(f"usage error: {args.docs} is not a directory")
        return 64
    return check_docs(args.docs)


if __name__ == "__main__":
    sys.exit(main())
