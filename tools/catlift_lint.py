#!/usr/bin/env python3
"""catlift_lint: project-specific invariant linter for the catlift repo.

Generic static analysis cannot know this repo's contracts; this linter
parses the sources and enforces the ones a silent violation would poison
campaigns with:

  CL001 manifest-coverage
      Every field of SimOptions / RunOptions / CampaignOptions /
      AcCampaignOptions / DcScreenOptions, and of the structs they nest
      (DetectionSpec, InjectionOptions, AcSpec, TranSpec), is either
      referenced inside its campaign-manifest hash region or carries a
      `manifest-exempt: <reason>` marker in the doc comment above it.
      RunOptions is the base the three campaign option structs share; its
      region is the shared manifest encoding (injection_signature /
      run_signature).  A new verdict-affecting knob that skips the
      manifest would let a foreign result store be resumed as if it were
      the same campaign.

  CL002 store-format-version
      The serialized record surface (the FaultSimResult and NominalRecord
      fields, the RecordKind tags, and the encode()/decode() and
      encode_nominal()/decode_nominal() bodies in result_store.cpp) is
      fingerprinted into
      tools/store_format.lock together with the declared kVersion.  Any
      change to the serialization without a version bump -- which would
      make old stores decode into garbage instead of being rejected as
      foreign -- fails; a version bump requires regenerating the lock
      (`--update-store-lock`), making the bump reviewable.

  CL003 determinism
      No rand()/time()/locale-dependent calls in the verdict paths:
      src/spice, src/anafault, the layout half (src/geom, src/extract,
      src/lift) and src/netlist, whose parser reads every deck value.
      Verdicts must be bit-reproducible across runs, machines and
      locales; wall-clock reads are confined to std::chrono, randomness
      to src/defects' seeded generators.
      Suppress a deliberate use with `// lint-allow(CL003): <reason>`.

  CL004 fault-containment
      The per-fault body (the run_class lambda) of the campaign driver,
      which every analysis (tran/AC/DC) runs through, catches
      std::exception: one pathological fault must retire `failed`, never
      take down the other faults' verdicts with it.

  CL005 site-docs
      Every failpoint site name (robust::hit("...")), span phase name
      and event name used in the sources appears in the docs catalogs
      (docs/robustness.md / docs/trace-schema.md), so the operational
      surface never drifts ahead of its documentation.  The reverse
      holds for events: every row of the trace schema's event table
      names a string literal of the sources, so a row never outlives
      its emitter.

Usage:
  catlift_lint.py [--root DIR]      lint the repo (default: script's repo)
  catlift_lint.py --self-test       prove every rule fires on a seeded
                                    violation (run in CI after the lint)
  catlift_lint.py --update-store-lock   rewrite tools/store_format.lock
"""

import argparse
import hashlib
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

# ---------------------------------------------------------------------------
# Repo map: where the contracts live.

OPTION_STRUCTS = {
    # struct -> (header, [files containing its manifest region],
    #            [functions forming the region])
    "SimOptions": (
        "src/spice/engine.h",
        ["src/anafault/campaign.cpp"],
        ["sim_knob_signature"],
    ),
    # The execution options tran, AC and DC share: each struct below
    # derives from it, and struct_fields() only sees a struct's own
    # fields, so without this entry the shared fields go unchecked.
    "RunOptions": (
        "src/anafault/campaign.h",
        ["src/anafault/campaign.cpp"],
        ["injection_signature", "run_signature"],
    ),
    "CampaignOptions": (
        "src/anafault/campaign.h",
        ["src/anafault/campaign.cpp"],
        ["manifest_hash", "campaign_manifest", "resolve_tran"],
    ),
    "AcCampaignOptions": (
        "src/anafault/ac_campaign.h",
        ["src/anafault/ac_campaign.cpp"],
        ["ac_campaign_manifest"],
    ),
    "DcScreenOptions": (
        "src/anafault/dc_campaign.h",
        ["src/anafault/dc_campaign.cpp"],
        ["dc_screen_manifest"],
    ),
    # Nested option structs: struct_fields() sees only the member that
    # holds one (`detection`, `injection`, `sweep`, `tran`), so each is
    # checked against the region that hashes its own fields.
    "DetectionSpec": ("src/anafault/comparator.h",
                      ["src/anafault/campaign.cpp"], ["manifest_hash"]),
    "InjectionOptions": ("src/anafault/fault_models.h",
                         ["src/anafault/campaign.cpp"],
                         ["injection_signature"]),
    "AcSpec": ("src/spice/ac.h", ["src/anafault/ac_campaign.cpp"],
               ["ac_campaign_manifest"]),
    "TranSpec": ("src/netlist/netlist.h", ["src/anafault/campaign.cpp"],
                 ["manifest_hash"]),
}

STORE_HEADER = "src/batch/result_store.h"
STORE_IMPL = "src/batch/result_store.cpp"
STORE_LOCK = "tools/store_format.lock"

# Verdict paths: the kernel and the campaigns, the layout half (geometry,
# extraction, LIFT) whose fault list feeds every verdict, and the netlist
# layer whose parser reads every deck value and whose LVS gates the list.
DETERMINISM_DIRS = ["src/spice", "src/anafault", "src/extract", "src/lift",
                    "src/geom", "src/netlist"]

# The one campaign driver: tran, AC and DC are policies plugged into its
# single run_class body.
RUNNER_FILES = [
    "src/anafault/driver.h",
]

TRACE_IMPL = "src/obs/trace.cpp"
ROBUSTNESS_DOC = "docs/robustness.md"
TRACE_SCHEMA_DOC = "docs/trace-schema.md"

EXEMPT_MARKER = "manifest-exempt:"
ALLOW_MARKER = re.compile(r"//\s*lint-allow\(([A-Z0-9]+)\)\s*:")

BANNED_CALLS = [
    # (rule label, compiled regex).  The lookbehind excludes member
    # accesses (.time(), ->rand()) and identifier tails (detect_time().
    ("rand()", re.compile(r"(?<![\w.>])(?:rand|srand|rand_r|drand48|"
                          r"lrand48|mrand48|random)\s*\(")),
    # Every libc time-family function takes an argument, so empty parens
    # (a member declaration like `double time() const`) are not a call.
    ("time()", re.compile(r"(?<![\w.>])(?:time|gettimeofday|localtime|"
                          r"gmtime|ctime)\s*\(\s*[^)\s]")),
    ("locale", re.compile(r"(?<![\w.>])(?:setlocale|atof|"
                          r"strto(?:d|f|ld))\s*\(|std::locale")),
]


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.rule} {self.path}:{self.line}: {self.message}"


# ---------------------------------------------------------------------------
# C++-shaped text helpers (regex-grade, not a parser -- enough for this
# repo's house style, and the self-tests pin that it stays enough).


def strip_comments(text):
    """Remove // and /* */ comments (string literals are left alone --
    good enough for fingerprinting and region matching)."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def extract_braced(text, open_pos):
    """Return (body, end_index) of the brace block opening at or after
    open_pos, or (None, -1)."""
    start = text.find("{", open_pos)
    if start < 0:
        return None, -1
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[start + 1:i], i
    return None, -1


def find_struct_body(text, name):
    m = re.search(r"\bstruct\s+" + re.escape(name) + r"\b[^;{]*\{", text)
    if not m:
        return None, 0
    body, _ = extract_braced(text, m.start())
    line = text[:m.start()].count("\n") + 1
    return body, line


def find_function_body(text, name):
    """Body of the first function definition called `name` (skips mere
    calls/declarations by requiring a { before the next ;)."""
    for m in re.finditer(r"\b" + re.escape(name) + r"\s*\(", text):
        close = matching_paren(text, m.end() - 1)
        if close < 0:
            continue
        tail = text[close + 1:close + 200]
        brace = tail.find("{")
        semi = tail.find(";")
        if brace >= 0 and (semi < 0 or brace < semi):
            body, _ = extract_braced(text, close)
            return body
    return None


def matching_paren(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def struct_fields(body):
    """Yield (field_name, chunk_text) for every data member declared at
    the struct's top level.  Nested {...} regions (constructor bodies,
    inline methods) are elided first; statements containing a '(' other
    than an initializer call are treated as functions and skipped."""
    # A ';' inside a // comment must not split the statement it documents.
    lines = []
    for line in body.splitlines():
        i = line.find("//")
        if i >= 0:
            line = line[:i] + line[i:].replace(";", ",")
        lines.append(line)
    body = "\n".join(lines)
    flat = []
    depth = 0
    for c in body:
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            continue
        if depth == 0:
            flat.append(c)
    for chunk in "".join(flat).split(";"):
        code = strip_comments(chunk)
        code = re.sub(r"=.*", "", code, flags=re.S).strip()
        if not code or "(" in code or ")" in code:
            continue  # ctor/method signature remnants, not a field
        if re.match(r"^(?:using|typedef|friend|static\s+constexpr)\b", code):
            continue
        words = re.findall(r"[A-Za-z_]\w*", code)
        if len(words) < 2:
            continue  # a lone type name is not a declaration
        yield words[-1], chunk


# ---------------------------------------------------------------------------
# Rules


def rule_manifest_coverage(root):
    findings = []
    for struct, (header, region_files, region_fns) in OPTION_STRUCTS.items():
        htext = (root / header).read_text()
        body, line0 = find_struct_body(htext, struct)
        if body is None:
            findings.append(Finding("CL001", header, 1,
                                    f"struct {struct} not found"))
            continue
        region = ""
        for rf in region_files:
            rtext = (root / rf).read_text()
            for fn in region_fns:
                fn_body = find_function_body(rtext, fn)
                if fn_body:
                    region += strip_comments(fn_body)
        if not region:
            findings.append(Finding(
                "CL001", region_files[0], 1,
                f"manifest region {region_fns} for {struct} not found"))
            continue
        for field, chunk in struct_fields(body):
            if EXEMPT_MARKER in chunk:
                # The reason must sit on the marker's own line.
                if not re.search(re.escape(EXEMPT_MARKER) + r"[^\S\n]*\S",
                                 chunk):
                    findings.append(Finding(
                        "CL001", header, field_line(htext, line0, chunk),
                        f"{struct}::{field}: manifest-exempt marker "
                        "needs a reason"))
                continue
            if not re.search(r"[.>]\s*" + re.escape(field) + r"\b", region):
                findings.append(Finding(
                    "CL001", header, field_line(htext, line0, chunk),
                    f"{struct}::{field} is neither hashed in "
                    f"{'/'.join(region_fns)} nor marked "
                    f"'// {EXEMPT_MARKER} <reason>'"))
    return findings


def field_line(htext, struct_line, chunk):
    tail = chunk.strip().splitlines()[-1] if chunk.strip() else ""
    pos = htext.find(tail) if tail else -1
    return htext[:pos].count("\n") + 1 if pos >= 0 else struct_line


def store_fingerprint(root):
    """(declared version, fingerprint) of the record serialization
    surface: the fault and nominal records' fields, the record-kind tags
    and both records' encoder/decoder bodies, comment-stripped and
    whitespace-normalized so reformatting and comment edits never trigger
    CL002."""
    htext = (root / STORE_HEADER).read_text()
    itext = (root / STORE_IMPL).read_text()
    parts = [find_struct_body(htext, name)[0]
             for name in ("FaultSimResult", "NominalRecord")]
    kinds = re.search(r"\benum\s+RecordKind\b", itext)
    parts.append(extract_braced(itext, kinds.start())[0] if kinds else None)
    parts += [find_function_body(itext, name)
              for name in ("encode", "decode", "encode_nominal",
                           "decode_nominal")]
    m = re.search(r"kVersion\s*=\s*(\d+)", itext)
    version = int(m.group(1)) if m else -1
    surface = ""
    for part in parts:
        if part is None:
            continue
        surface += re.sub(r"\s+", " ", strip_comments(part)) + "\n"
    return version, hashlib.sha256(surface.encode()).hexdigest()


def rule_store_format(root):
    version, digest = store_fingerprint(root)
    lock_path = root / STORE_LOCK
    if version < 0:
        return [Finding("CL002", STORE_IMPL, 1,
                        "kVersion constant not found")]
    if not lock_path.exists():
        return [Finding("CL002", STORE_LOCK, 1,
                        "missing store-format lock; run "
                        "catlift_lint.py --update-store-lock")]
    lock = json.loads(lock_path.read_text())
    if lock.get("version") != version:
        return [Finding(
            "CL002", STORE_IMPL, 1,
            f"STORE_FORMAT_VERSION is {version} but {STORE_LOCK} records "
            f"{lock.get('version')}; if the bump is intended, run "
            "catlift_lint.py --update-store-lock and commit the lock")]
    if lock.get("fingerprint") != digest:
        return [Finding(
            "CL002", STORE_IMPL, 1,
            "record serialization changed without a kVersion bump "
            "(FaultSimResult / NominalRecord / RecordKind or their "
            "encoders / decoders differ from the locked "
            f"fingerprint for v{version}); bump kVersion and run "
            "catlift_lint.py --update-store-lock")]
    return []


def update_store_lock(root):
    version, digest = store_fingerprint(root)
    (root / STORE_LOCK).write_text(json.dumps(
        {"version": version, "fingerprint": digest}, indent=2) + "\n")
    print(f"{STORE_LOCK}: locked store format v{version} ({digest[:12]}...)")


def rule_determinism(root):
    findings = []
    for d in DETERMINISM_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in (".h", ".cpp", ".hpp", ".cc"):
                continue
            rel = path.relative_to(root).as_posix()
            for ln, line in enumerate(path.read_text().splitlines(), 1):
                allow = ALLOW_MARKER.search(line)
                if allow and allow.group(1) == "CL003":
                    continue
                code = re.sub(r"//.*", "", line)
                code = re.sub(r'"(?:\\.|[^"\\])*"', '""', code)
                for label, rx in BANNED_CALLS:
                    if rx.search(code):
                        findings.append(Finding(
                            "CL003", rel, ln,
                            f"{label}-family call in a verdict path "
                            "(use std::chrono / seeded generators, or "
                            "suppress with // lint-allow(CL003): reason)"))
    return findings


def rule_fault_containment(root):
    findings = []
    for rel in RUNNER_FILES:
        text = (root / rel).read_text()
        m = re.search(r"run_class\s*=\s*\[", text)
        if not m:
            findings.append(Finding(
                "CL004", rel, 1,
                "per-fault lambda `run_class` not found"))
            continue
        body, _ = extract_braced(text, m.end())
        line = text[:m.start()].count("\n") + 1
        if body is None or not re.search(
                r"catch\s*\(\s*(?:const\s+)?std::exception\b|catch\s*"
                r"\(\s*\.\.\.\s*\)", body):
            findings.append(Finding(
                "CL004", rel, line,
                "per-fault body does not catch std::exception -- one "
                "throwing fault would escape to the scheduler instead "
                "of retiring `failed`"))
    return findings


# The trace schema's event table: its header row, the rule under it,
# and every row up to the first line that is not one.
EVENT_TABLE = re.compile(
    r"^\| event\s*\|[^\n]*\n\|[-|]+\|\n((?:\|[^\n]*\n)*)", re.M)
STRING_LITERAL = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


def rule_site_docs(root):
    findings = []
    robustness = (root / ROBUSTNESS_DOC).read_text()
    schema = (root / TRACE_SCHEMA_DOC).read_text()
    literals = set()

    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cpp", ".hpp", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        literals.update(STRING_LITERAL.findall(text))
        for m in re.finditer(r'robust::hit\(\s*"([^"]+)"', text):
            if f"`{m.group(1)}`" not in robustness:
                findings.append(Finding(
                    "CL005", rel, text[:m.start()].count("\n") + 1,
                    f"failpoint site '{m.group(1)}' is not in the "
                    f"{ROBUSTNESS_DOC} catalog"))
        for m in re.finditer(r'emit_event\(\s*"([^"]+)"', text):
            if f"`{m.group(1)}`" not in schema:
                findings.append(Finding(
                    "CL005", rel, text[:m.start()].count("\n") + 1,
                    f"event '{m.group(1)}' is not in the "
                    f"{TRACE_SCHEMA_DOC} event table"))

    table = EVENT_TABLE.search(schema)
    if not table:
        findings.append(Finding("CL005", TRACE_SCHEMA_DOC, 1,
                                "no event table found"))
    else:
        line = schema[:table.start(1)].count("\n") + 1
        for k, row in enumerate(table.group(1).splitlines()):
            m = re.match(r"\|\s*`([^`]+)`", row)
            if m and m.group(1) not in literals:
                findings.append(Finding(
                    "CL005", TRACE_SCHEMA_DOC, line + k,
                    f"event '{m.group(1)}' of the event table is emitted "
                    f"nowhere in src/"))

    trace = (root / TRACE_IMPL).read_text()
    fn = find_function_body(trace, "phase_name")
    for m in re.finditer(r'return\s+"([^"]+)"', fn or ""):
        name = m.group(1)
        if name == "unknown":
            continue
        if f"`{name}`" not in schema:
            findings.append(Finding(
                "CL005", TRACE_IMPL, 1,
                f"span phase '{name}' is not in the "
                f"{TRACE_SCHEMA_DOC} span table"))
    return findings


RULES = [
    rule_manifest_coverage,
    rule_store_format,
    rule_determinism,
    rule_fault_containment,
    rule_site_docs,
]


def run_lint(root):
    findings = []
    for rule in RULES:
        findings.extend(rule(root))
    return findings


# ---------------------------------------------------------------------------
# Seeded-violation self-test: every rule must fire on a fixture tree a
# violation was injected into, and the pristine tree must be clean.
# tests/lint_test.py drives the same scenarios through unittest.


def make_fixture(root, dst):
    """Copy the lint-relevant slice of the repo into dst."""
    for sub in ("src", "docs"):
        shutil.copytree(root / sub, dst / sub)
    (dst / "tools").mkdir()
    shutil.copy(root / STORE_LOCK, dst / STORE_LOCK)
    return dst


def mutate(path, old, new, count=1):
    text = path.read_text()
    assert old in text, f"fixture drift: {old!r} not found in {path}"
    path.write_text(text.replace(old, new, count))


# Each scenario: (expected rule id, short name, mutator(fixture_root)).
def _seed_unhashed_sim_field(fx):
    mutate(fx / "src/spice/engine.h",
           "struct SimOptions {",
           "struct SimOptions {\n    double sneaky_new_tol = 1e-6;\n")


def _seed_unhashed_campaign_field(fx):
    mutate(fx / "src/anafault/campaign.h",
           "struct CampaignOptions : RunOptions {",
           "struct CampaignOptions : RunOptions {\n"
           "    bool sneaky_switch = false;\n")


def _seed_unhashed_shared_field(fx):
    mutate(fx / "src/anafault/campaign.h",
           "struct RunOptions {",
           "struct RunOptions {\n    bool sneaky_shared_knob = false;\n")


def _seed_unhashed_detection_field(fx):
    mutate(fx / "src/anafault/comparator.h",
           "struct DetectionSpec {",
           "struct DetectionSpec {\n    double sneaky_slope_tol = 0.0;\n")


def _seed_exempt_without_reason(fx):
    mutate(fx / "src/spice/engine.h",
           "struct SimOptions {",
           "struct SimOptions {\n    // manifest-exempt:\n"
           "    int undocumented = 0;\n")


def _seed_unbumped_store_change(fx):
    mutate(fx / "src/batch/result_store.cpp",
           "put(p, r.probability);",
           "put(p, r.probability);\n    put(p, r.sim_seconds);")


def _seed_unbumped_nominal_change(fx):
    mutate(fx / "src/batch/result_store.cpp",
           "put_str(p, n.analysis);",
           "put_str(p, n.analysis);\n    put(p, std::uint8_t{0});")


def _seed_version_bump_without_lock(fx):
    text = (fx / "src/batch/result_store.cpp").read_text()
    m = re.search(r"kVersion = (\d+)", text)
    mutate(fx / "src/batch/result_store.cpp",
           f"kVersion = {m.group(1)}",
           f"kVersion = {int(m.group(1)) + 1}")


def _seed_rand_in_kernel(fx):
    mutate(fx / "src/spice/engine.cpp",
           "namespace catlift::spice {",
           "namespace catlift::spice {\n"
           "static int jitter() { return rand() % 3; }\n")


def _seed_time_in_runner(fx):
    mutate(fx / "src/anafault/campaign.cpp",
           "namespace catlift::anafault {",
           "namespace catlift::anafault {\n"
           "static long stamp() { return time(nullptr); }\n")


def _seed_strtod_in_parser(fx):
    mutate(fx / "src/netlist/units.cpp",
           "namespace catlift::netlist {",
           "namespace catlift::netlist {\n"
           "static double lenient(const char* s) { return strtod(s, 0); }\n")


def _seed_missing_catch(fx):
    mutate(fx / "src/anafault/driver.h",
           "catch (const std::exception", "catch (const catlift::Error",
           count=10)


def _seed_undocumented_failpoint(fx):
    mutate(fx / "src/batch/result_store.cpp",
           'robust::hit("store.append")',
           'robust::hit("store.append_v2")')


def _seed_undocumented_event(fx):
    mutate(fx / "src/batch/scheduler.cpp",
           'obs::emit_event("job_error"',
           'obs::emit_event("job_exploded"')


def _seed_documented_unemitted_event(fx):
    mutate(fx / TRACE_SCHEMA_DOC,
           "| `job_error`",
           "| `job_vanished`       | `job` — emitted nowhere |\n"
           "| `job_error`")


SCENARIOS = [
    ("CL001", "unhashed SimOptions field", _seed_unhashed_sim_field),
    ("CL001", "unhashed CampaignOptions field",
     _seed_unhashed_campaign_field),
    ("CL001", "unhashed RunOptions field", _seed_unhashed_shared_field),
    ("CL001", "unhashed DetectionSpec field",
     _seed_unhashed_detection_field),
    ("CL001", "manifest-exempt without reason", _seed_exempt_without_reason),
    ("CL002", "store record change without version bump",
     _seed_unbumped_store_change),
    ("CL002", "nominal record change without version bump",
     _seed_unbumped_nominal_change),
    ("CL002", "version bump without lock regen",
     _seed_version_bump_without_lock),
    ("CL003", "rand() in spice kernel", _seed_rand_in_kernel),
    ("CL003", "time() in campaign runner", _seed_time_in_runner),
    ("CL003", "strtod in deck value parser", _seed_strtod_in_parser),
    ("CL004", "per-fault catch narrowed", _seed_missing_catch),
    ("CL005", "undocumented failpoint site", _seed_undocumented_failpoint),
    ("CL005", "undocumented event name", _seed_undocumented_event),
    ("CL005", "documented event nothing emits",
     _seed_documented_unemitted_event),
]


# Scenarios whose finding must also name the offending field and region.
EXPECTED_FINDINGS = {
    "unhashed RunOptions field":
        "RunOptions::sneaky_shared_knob is neither hashed in "
        "injection_signature/run_signature",
    "unhashed DetectionSpec field":
        "DetectionSpec::sneaky_slope_tol is neither hashed in "
        "manifest_hash",
    "documented event nothing emits":
        "event 'job_vanished' of the event table is emitted nowhere",
}


def scenario_fired(name, findings):
    """True when `findings` (of the scenario's rule) include the expected
    message, if the scenario pins one."""
    expected = EXPECTED_FINDINGS.get(name)
    if expected is None:
        return bool(findings)
    return any(expected in f.message for f in findings)


def run_scenario(root, rule_id, mutator):
    """Run one seeded violation; returns the findings with that rule id."""
    with tempfile.TemporaryDirectory(prefix="catlift_lint_") as tmp:
        fx = make_fixture(root, Path(tmp))
        mutator(fx)
        return [f for f in run_lint(fx) if f.rule == rule_id]


def self_test(root):
    baseline = run_lint(root)
    ok = True
    if baseline:
        ok = False
        print("self-test: pristine tree must be clean, found:")
        for f in baseline:
            print(f"  {f}")
    for rule_id, name, mutator in SCENARIOS:
        fired = scenario_fired(name, run_scenario(root, rule_id, mutator))
        status = "ok" if fired else "FAIL"
        if not fired:
            ok = False
        print(f"self-test [{status}] {rule_id} fires on: {name}")
    return ok


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="repo root (default: this script's repo)")
    ap.add_argument("--self-test", action="store_true",
                    help="prove every rule fires on a seeded violation")
    ap.add_argument("--update-store-lock", action="store_true",
                    help="rewrite tools/store_format.lock from the "
                         "current serialization surface")
    args = ap.parse_args()

    if args.update_store_lock:
        update_store_lock(args.root)
        return 0
    if args.self_test:
        return 0 if self_test(args.root) else 1

    findings = run_lint(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"catlift_lint: {len(findings)} finding(s)")
        return 1
    print("catlift_lint: clean "
          f"({len(RULES)} rules over manifest/store/determinism/"
          "containment/docs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
