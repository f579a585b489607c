"""LLM-serving study: idle governors on prefill, decode, and tenant mixes.

The scaling figures ask how far one HPC kernel stretches across GPMs; an
LLM inference server asks something different: which *governor* should own
the modules while the request mix oscillates between two regimes with
opposite shapes?

* **prefill** — long compute-dense kernels whose CTA grids fill every GPM
  wave evenly.  There is nothing to gate; sprinting buys only a V² premium.
* **decode** — short memory-bound kernels whose token-at-a-time grids leave
  straggler waves (33 CTAs over 8 GPMs x 4 slots: one module runs a second
  wave while seven sit exposed).  Racing the straggler's neighbours to the
  gate wins real sleep cycles.
* **tenant-mix** — two independent clients' prefill and decode kernels
  composed into one submission (:func:`repro.workloads.llm.schedule_spec`
  with ``clients``), the shape a multi-tenant serving node actually sees.

Each grid runs under the four governors the idle study introduced —
``static``, ``utilization`` (downclock-only incumbent), ``race-to-idle``,
and ``deadline-paced`` — on the same 8-GPM study fabric, and is summarized
as EDPSE (Eq. 2) against the 1-GPM static baseline.  The headline the
integration tests pin: race-to-idle beats the utilization governor on the
decode grid (the straggler gap pays for the sprint) while prefill shows no
such win.  The comparison is the idle study's ``GovernorStudy``; this
module supplies the serving grids.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.experiments import idle_study
from repro.workloads.llm import schedule_spec
from repro.workloads.spec import WorkloadSpec

#: Governor variants in render order: the idle study's without
#: ``gate-only`` (a serving node always runs *some* policy).
STUDY_GOVERNORS: tuple[str, ...] = tuple(
    g for g in idle_study.STUDY_GOVERNORS if g != "gate-only"
)

#: The serving grids in render order.
GRID_ORDER: tuple[str, ...] = ("prefill", "decode", "tenant-mix")

#: CTA counts tuned to the 8-GPM study fabric (4 CTA slots per GPM, 32
#: total): 64 fills two even waves (steady); 33 leaves one straggler GPM a
#: second wave while seven idle (bursty).
PREFILL_CTAS = 64
DECODE_CTAS = 33

#: The two serving clients composed into the tenant-mix grid.
TENANTS: tuple[str, ...] = ("svc-a", "svc-b")


def grid_spec(grid: str, quick: bool = False) -> WorkloadSpec:
    """The phase-scheduled workload behind one serving grid.

    ``quick`` halves the kernel counts for the CI smoke tier while keeping
    every grid's wave shape (the CTA counts are what make the shapes).
    """
    if grid == "prefill":
        return schedule_spec(
            (("prefill", PREFILL_CTAS, 2 if quick else 4),),
            abbr="LLMPre8",
        )
    if grid == "decode":
        return schedule_spec(
            (("decode", DECODE_CTAS, 3 if quick else 6),),
            abbr="LLMDec8",
        )
    if grid == "tenant-mix":
        return schedule_spec(
            (
                ("prefill", PREFILL_CTAS // 4, 1),
                ("decode", DECODE_CTAS, 1 if quick else 2),
            ),
            clients=TENANTS,
            abbr="LLMMix8",
        )
    raise ExperimentError(
        f"unknown LLM-study grid {grid!r}; known: {list(GRID_ORDER)}"
    )


LLM_STUDY = idle_study.GovernorStudy(
    title="LLM study",
    name="LLM-study",
    governors=STUDY_GOVERNORS,
    workloads=lambda quick: (
        {grid: grid_spec(grid, quick=quick) for grid in GRID_ORDER},
        {},
    ),
    note=(
        "EDPSE baseline: 1 GPM, anchor clock, no gating."
        f" prefill = {PREFILL_CTAS} CTAs (even waves);"
        f" decode = {DECODE_CTAS} CTAs (straggler wave);"
        " tenant-mix composes both phases for two clients."
        " Race-to-idle beats the utilization governor on the"
        " decode grid; prefill shows no such win."
    ),
    mean_column=True,
)

#: ``run(runner, governors, quick)``: see
#: :meth:`~repro.experiments.idle_study.GovernorStudy.run`.
run = LLM_STUDY.run
