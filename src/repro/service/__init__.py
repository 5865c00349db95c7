"""Tuner-as-a-service: unified requests, persistent plans, serving.

The pieces, bottom to top:

* :class:`TuneRequest` / :func:`execute` — the one request schema all
  tuner entry points share (:mod:`repro.service.request`);
* :class:`PlanStore` — on-disk content-addressed plan persistence
  (:mod:`repro.service.store`);
* :class:`TunerService` — the concurrent, deduplicating front end
  (:mod:`repro.service.server`);
* :func:`run_load` / :func:`zipf_mix` — the load generator behind
  ``meshslice serve --replay`` and ``BENCH_service.json``
  (:mod:`repro.service.loadgen`).
"""

from repro.service.loadgen import (
    LoadReport,
    default_catalog,
    run_load,
    zipf_mix,
)
from repro.service.request import MODES, TuneRequest, execute
from repro.service.server import TunerService
from repro.service.store import PlanStore

__all__ = [
    "LoadReport",
    "MODES",
    "PlanStore",
    "TuneRequest",
    "TunerService",
    "default_catalog",
    "execute",
    "run_load",
    "zipf_mix",
]
