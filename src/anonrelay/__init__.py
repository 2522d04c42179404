"""anonrelay: scheduling and relaying primitives for traffic-analysis-resistant
networks, with exact anonymity accounting and throughput tradeoff tools.

The package is organised around one pipeline:

* `point_process` generates per-node transmission schedules and estimates
  their rates.
* `relay_core` matches arrival schedules to independent departure schedules
  under strict or average delay constraints.
* `analytic` holds the closed-form loss and delay formulas the matchers
  converge to, plus the two-source achievable-rate region.
* `network_model` lifts single relays to sessions on a topology: eavesdropper
  observations, visible-case sum rates, covert-case losses, and end-to-end
  simulation.
* `anonymity_opt` measures anonymity as normalised equivocation and computes
  the sum-rate/anonymity frontier via Blahut-Arimoto.
* `cli` drives reproducible experiments from the command line.
"""

__version__ = "0.1.0"

from . import analytic, anonymity_opt, network_model, point_process, relay_core

__all__ = [
    "analytic",
    "anonymity_opt",
    "network_model",
    "point_process",
    "relay_core",
    "__version__",
]
