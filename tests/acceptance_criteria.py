"""The Monte Carlo acceptance criteria (4 to 9), each a function of a seed.

``criterion_N(seed, workers)`` runs criterion N's experiments at ``seed``
and returns the list of its failed checks, empty when it passes.
``test_acceptance.py`` calls each at its pinned seed and asserts the list
is empty; ``tools/criteria_seeds.py`` calls them at many seeds. The
experiments and thresholds live here only, so the two cannot drift.
"""

import math
from functools import lru_cache

from granger_lab.core import TopologyKind
from granger_lab.criteria import Criterion
from granger_lab.datagen import GeneratorConfig, NoiseKind
from granger_lab.experiments import (estimate_rates, extract_plane, phase_rows,
                                     snr_grid, sweep_sample_size,
                                     sweep_significance)


def _se(rate: float, cases: int) -> float:
    return math.sqrt(max(rate, 1e-12) * (1 - min(rate, 1 - 1e-12)) / cases)


def criterion_4(seed, workers):
    """Optimal alpha within 0.1 of 0.2 (indirect) and 0.3 (driver)."""
    alphas = tuple(round(0.05 * i, 2) for i in range(1, 11))  # 0.05 .. 0.5
    targets = {TopologyKind.INDIRECT: 0.2, TopologyKind.DRIVER: 0.3}
    faults = []
    for topology, target in targets.items():
        sweep = sweep_significance(topology, alphas, n_points=50,
                                   iterations=2000, seed=seed, workers=workers)
        for criterion in (Criterion.LR, Criterion.WALD, Criterion.RAO):
            optimum = sweep.optimal(criterion)
            if not abs(optimum - target) <= 0.1 + 1e-9:
                faults.append(f"{topology.value}/{criterion.value}: optimum {optimum}")
    return faults


def criterion_5(seed, workers):
    """Unidentified rate about 0 at the threshold n, above 0.05 at n=50."""
    cases = 1000
    settings = ((TopologyKind.INDIRECT, 0.2, 175), (TopologyKind.DRIVER, 0.3, 300))
    faults = []
    for topology, alpha, n_zero in settings:
        at_zero = estimate_rates(GeneratorConfig(topology=topology, length=n_zero),
                                 alpha=alpha, iterations=cases, master_seed=seed,
                                 workers=workers)
        rate = at_zero.unidentified_rate
        if not rate <= 0.01 + 3 * _se(max(rate, 0.01), cases):
            faults.append(f"{topology.value}: unidentified {rate} at n={n_zero}")
        small = estimate_rates(GeneratorConfig(topology=topology, length=50),
                               alpha=alpha, iterations=cases, master_seed=seed,
                               workers=workers)
        if not small.unidentified_rate > 0.05:
            faults.append(f"{topology.value}: unidentified "
                          f"{small.unidentified_rate} at n=50")
    return faults


def criterion_6(seed, workers):
    """LR and Wald differ at n=50 but not at 100 or 150; Wald and Rao never."""
    sizes = (25, 50, 75, 100, 150, 300)
    sweep = sweep_sample_size(TopologyKind.DRIVER, alpha=0.05, sizes=sizes,
                              criteria=(Criterion.LR, Criterion.WALD, Criterion.RAO),
                              cases=1000, seed=seed, workers=workers)
    lr_wald = dict(zip(sizes, sweep.comparisons[(Criterion.LR, Criterion.WALD)]))
    wald_rao = dict(zip(sizes, sweep.comparisons[(Criterion.WALD, Criterion.RAO)]))
    faults = [] if lr_wald[50].spurious_different else ["LR and Wald agree at n=50"]
    faults += [f"LR and Wald differ at n={n}" for n in (100, 150)
               if lr_wald[n].spurious_different]
    faults += [f"Wald and Rao differ at n={n}" for n in sizes
               if wald_rao[n].spurious_different]
    return faults


@lru_cache(maxsize=1)
def intrinsic_grids(seed, workers):
    """Criteria 7 and 8's intrinsic phase spaces, one list of rows per
    topology."""
    grid5 = snr_grid(points=5)  # (-40, -20, 0, 20, 40) dB
    return {topology: list(phase_rows(NoiseKind.INTRINSIC_SNR, topology, n=300,
                                      alpha=0.05, iterations=500,
                                      grids=(grid5, grid5, grid5), seed=seed,
                                      workers=workers))
            for topology in (TopologyKind.DRIVER, TopologyKind.INDIRECT)}


def criterion_7(seed, workers):
    """Intrinsic spurious rate within [0.02, 0.10] on every cell."""
    faults = []
    for topology, rows in intrinsic_grids(seed, workers).items():
        spurious = [row["spurious_rate"] for row in rows]
        low, high = min(spurious), max(spurious)
        if not (0.02 <= low and high <= 0.10):
            faults.append(f"{topology.value}: spurious range [{low}, {high}]")
    return faults


def criterion_8(seed, workers):
    """Driver mean unidentified rate <= 0.05 at SNR_Z +40 dB, >= 0.80 at -40 dB."""
    rows = intrinsic_grids(seed, workers)[TopologyKind.DRIVER]
    high = extract_plane(rows, "z", 40.0, "unidentified_rate").mean()
    low = extract_plane(rows, "z", -40.0, "unidentified_rate").mean()
    faults = [] if high <= 0.05 else [f"mean unidentified {high} at +40 dB"]
    faults += [] if low >= 0.80 else [f"mean unidentified {low} at -40 dB"]
    return faults


def criterion_9(seed, workers):
    """Extrinsic key links: x->z kept or lost with SNR_Z, y->z kept."""
    def link_rate(topology, snrs, link):
        gen = GeneratorConfig(topology=topology, length=300,
                              noise_kind=NoiseKind.EXTRINSIC_SNR,
                              sigmas_or_snrs=snrs)
        est = estimate_rates(gen, alpha=0.05, iterations=500, master_seed=seed,
                             workers=workers)
        return est.per_link_rates[link]

    kept = link_rate(TopologyKind.INDIRECT, (20.0, -20.0, 20.0), "x->z")
    lost = link_rate(TopologyKind.INDIRECT, (20.0, -20.0, -40.0), "x->z")
    driver = link_rate(TopologyKind.DRIVER, (-20.0, 20.0, 20.0), "y->z")
    faults = [] if kept >= 0.90 else [f"indirect x->z {kept} < 0.90 at SNR_Z +20 dB"]
    faults += [] if lost <= 0.15 else [f"indirect x->z {lost} > 0.15 at SNR_Z -40 dB"]
    faults += [] if driver >= 0.90 else [f"driver y->z {driver} < 0.90"]
    return faults


CRITERIA = {4: criterion_4, 5: criterion_5, 6: criterion_6, 7: criterion_7,
            8: criterion_8, 9: criterion_9}
