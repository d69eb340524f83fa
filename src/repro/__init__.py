"""FastFlex: programmable data plane defenses as a first-class network
service (HotNets '19 reproduction).

Subpackages:

* :mod:`repro.netsim` — the network substrate (discrete-event + fluid).
* :mod:`repro.dataplane` — switch-hardware primitives and resources.
* :mod:`repro.core` — FastFlex itself: analyzer, scheduler, multimode
  data plane, distributed protocols, scaling.
* :mod:`repro.boosters` — the defense-app catalog.
* :mod:`repro.attacks` — Crossfire/rolling/pulsing/volumetric attackers.
* :mod:`repro.baselines` — the centralized SDN-TE defense.
* :mod:`repro.experiments` — drivers regenerating the paper's figures.

Run ``python -m repro`` for a CLI over the experiments.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
