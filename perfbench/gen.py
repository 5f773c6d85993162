"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same request lines byte for byte. Request ids are the decimal index of the
line in its file, which is what perfbench_client expects.
"""

import math
import random

# One block of 40 cold requests: policies about 2 : 1 : 1, and one request
# in ten near its policy's stability frontier. Every block has exactly this
# make-up (shuffled), so seeds differ in the draws, not in the mix.
BLOCK = ((("cscq", False),) * 18 + (("cscq", True),) * 2
         + (("csid", False),) * 9 + (("csid", True),)
         + (("dedicated", False),) * 9 + (("dedicated", True),))

# Every sim::policy_registry() token (docs/policies.md), in registry order.
PANEL_POLICIES = (
    "dedicated", "csid", "cscq", "cscq-norename", "mg2-fcfs", "mg2-sjf", "lwr",
    "tags", "rr", "random", "jiq", "steal-one", "steal-half", "threshold-steal",
    "work-sharing",
)


def max_rho_short(policy, rho_l):
    """Theorem 1 stability frontier of rho_S for the given rho_L."""
    if policy == "dedicated":
        return 1.0
    if policy == "csid":
        b = 1.0 - rho_l
        return 0.5 * (b + math.sqrt(b * b + 4.0))
    return 2.0 - rho_l


def draw_config(rng, policy, near):
    """One stable analyze config: rho_S at a share of the frontier, in
    [0.05, 0.95) or, `near` the frontier, in [0.95, 0.975)."""
    rho_l = rng.uniform(0.05, 0.9)
    share = rng.uniform(0.95, 0.975) if near else rng.uniform(0.05, 0.95)
    rho_s = share * max_rho_short(policy, rho_l)
    scv_l = math.exp(rng.uniform(0.0, math.log(16.0)))
    return (policy, round(rho_s, 6), round(rho_l, 6), round(scv_l, 4), 1.0)


def draws(rng):
    """Endless (policy, near) pairs, block by shuffled block."""
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        yield from block


def analyze_line(index, cfg):
    policy, rho_s, rho_l, scv_l, mean_l = cfg
    return ('{"id":"%d","op":"analyze","policy":"%s","rho_s":%r,"rho_l":%r,'
            '"mean_l":%r,"scv_l":%r}' % (index, policy, rho_s, rho_l, mean_l, scv_l))


def ping_line(index):
    return '{"id":"%d","op":"ping"}' % index


def cold_lines(seed, part, count):
    """`count` distinct analyze requests; each `part` draws its own."""
    rng = random.Random("serve-cold/%d/%d" % (seed, part))
    seen = set()
    lines = []
    for policy, near in draws(rng):
        if len(lines) == count:
            break
        cfg = draw_config(rng, policy, near)
        if cfg not in seen:
            seen.add(cfg)
            lines.append(analyze_line(len(lines), cfg))
    return lines


def hot_configs(seed, n):
    rng = random.Random("serve-hot/%d" % seed)
    configs = []
    for policy, near in draws(rng):
        if len(configs) == n:
            break
        cfg = draw_config(rng, policy, near)
        if cfg not in configs:
            configs.append(cfg)
    return configs


def hot_lines(seed, part, hot, count):
    """The seed's `hot` configs once each (cache warm-up), then `count`
    lines, half `ping`, half `analyze` of a uniformly drawn hot config;
    each `part` draws its own stream over the same hot set."""
    configs = hot_configs(seed, hot)
    lines = [analyze_line(i, cfg) for i, cfg in enumerate(configs)]
    rng = random.Random("serve-hot-stream/%d/%d" % (seed, part))
    for _ in range(count):
        i = len(lines)
        lines.append(ping_line(i) if rng.random() < 0.5
                     else analyze_line(i, rng.choice(configs)))
    return lines


def figure_sweeps(seed):
    """The paper's Fig 4-6 curves as csq_cli sweep argument lists.

    Fig 4 (exponential longs) and Fig 5 (Coxian longs, C^2 = 8): E[T]
    against rho_S on the paper's grid at rho_L = 0.5. Fig 6: against rho_L
    at rho_S = 1.5 on the shorts' and the longs' grids. Each figure has the
    paper's three size panels (shorts/longs mean 1/1, 1/10, 10/1). The seed
    moves the fixed-axis load by at most 0.01, so every seed sweeps its own
    grid at nearly the paper's cost.
    """
    rng = random.Random("cli-figures/%d" % seed)
    panels = (("1", "1"), ("1", "10"), ("10", "1"))
    sweeps = []
    for scv in ("1", "8"):
        rho_l = "%r" % round(0.5 + rng.uniform(-0.01, 0.01), 4)
        for ms, ml in panels:
            sweeps.append(["--x", "rho_s", "--from", "0.05", "--to", "1.45", "--points", "29",
                           "--rho-l", rho_l, "--scv-l", scv, "--mean-s", ms, "--mean-l", ml])
    rho_s = "%r" % round(1.5 + rng.uniform(-0.01, 0.01), 4)
    for ms, ml in panels:
        for lo, hi in (("0.01", "0.49"), ("0.02", "0.96")):
            sweeps.append(["--x", "rho_l", "--from", lo, "--to", hi, "--points", "25",
                           "--rho-s", rho_s, "--scv-l", "8", "--mean-s", ms, "--mean-l", ml])
    return sweeps
