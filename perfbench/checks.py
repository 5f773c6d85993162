"""Statistics and correctness checks shared by run.py and its tests."""

import json
import math

def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q
    of the sample at or below it. inf (a failed request) sorts last."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, q):
    """percentile(values, q) for a tail, which must have at least ten
    samples beyond it; a smaller sample is a ValueError."""
    beyond = len(values) - math.ceil(q * len(values))
    if beyond < 10:
        raise ValueError("p%g of %d samples has %d beyond it, fewer than ten"
                         % (q * 100, len(values), beyond))
    return percentile(values, q)


def response_id(line):
    """The id of a response line, or None when the line carries none."""
    if line.startswith('{"id":"'):  # the server's own encoding: ids first
        end = line.find('"', 7)
        if end > 0 and "\\" not in line[7:end]:
            return line[7:end]
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    rid = obj.get("id") if isinstance(obj, dict) else None
    return rid if isinstance(rid, str) else None


def is_overloaded(line):
    return '"code":"Overloaded"' in line


def check_responses(expected, got):
    """Match the measured server's response lines against the serial
    reference, one per request id.

    `expected` maps id -> reference response line; `got` is the measured
    server's response lines in any order. Returns a dict with the failed
    ids by cause: missing, duplicate, mismatch (bytes differ from the
    reference), shed (an Overloaded answer) and unknown (a response for an
    id nobody sent). Every cause but shed is a correctness failure.
    """
    seen = {}
    unknown = []
    for line in got:
        rid = response_id(line)
        if rid is None or rid not in expected:
            unknown.append(line)
            continue
        seen.setdefault(rid, []).append(line)
    out = {"missing": [], "duplicate": [], "mismatch": [], "shed": [], "unknown": unknown}
    for rid, ref in expected.items():
        lines = seen.get(rid, [])
        if not lines:
            out["missing"].append(rid)
        elif len(lines) > 1:
            out["duplicate"].append(rid)
        elif lines[0] != ref:
            out["shed" if is_overloaded(lines[0]) else "mismatch"].append(rid)
    return out


def failed_ids(report):
    ids = set()
    for cause in ("missing", "duplicate", "mismatch", "shed"):
        ids.update(report[cause])
    return ids


def responses_correct(report):
    return not (report["missing"] or report["duplicate"] or report["mismatch"]
                or report["unknown"])


def parse_metrics_dump(text):
    """The flat {name: value} object csq_serve --metrics writes at exit."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("metrics dump is not a JSON object")
    return obj


def counter_balance(dump, sent):
    """Violations of the serve counter invariants, as readable strings.

    received = admitted + shed + invalid; admitted = completed + cancelled;
    received = the number of lines the client sent. Counters that never
    moved are absent from the dump and read as zero.
    """
    def c(name):
        return int(dump.get("serve.requests." + name, 0))

    problems = []
    if c("received") != c("admitted") + c("shed") + c("invalid"):
        problems.append("received %d != admitted %d + shed %d + invalid %d"
                        % (c("received"), c("admitted"), c("shed"), c("invalid")))
    if c("admitted") != c("completed") + c("cancelled"):
        problems.append("admitted %d != completed %d + cancelled %d"
                        % (c("admitted"), c("completed"), c("cancelled")))
    if c("received") != sent:
        problems.append("received %d != sent %d" % (c("received"), sent))
    return problems


FINGERPRINT_KEYS = ("cpu_model", "nproc", "compiler", "build_type", "CSQ_OBS",
                    "CSQ_NATIVE_KERNELS")


def fingerprint_mismatch(a, b):
    """Keys on which two result fingerprints differ (empty when comparable)."""
    return [k for k in FINGERPRINT_KEYS if a.get(k) != b.get(k)]
