"""Campaign specs: how an experiment exposes itself to the runner.

A :class:`CampaignSpec` is the contract an experiment module publishes
(as a module-level ``CAMPAIGN`` constant), and the only way the
experiment runs — ``meshslice run`` executes :meth:`CampaignSpec.run`
in one go, ``meshslice campaign run`` the same points one durable
record at a time:

* ``points(**params)`` builds the grid — called without arguments,
  the paper's default grid — as encodable values (see
  :mod:`repro.campaign.codec`);
* ``point`` is the **module-level, picklable** function mapping one
  coordinate to its result row(s) — the unit of durability, retry,
  and process-pool distribution;
* ``render(rows)`` turns the accumulated rows back into the module's
  human-readable report, so ``meshslice campaign report`` reproduces
  the figure table from the store alone.

The experiments import this module; the registry in
:mod:`repro.campaign.registry` closes the loop lazily.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Optional, Sequence

from repro.experiments.common import grid_map

__all__ = ["CampaignSpec"]


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """One experiment's campaign contract.

    Args:
        name: Campaign name; by convention the experiment's registry
            name (``"fig9"``, ``"ablation-sdc"``, ...). Used as the
            store file name and hashed into every point key.
        points: Builder of the grid; with no arguments, the default
            grid.
        point: Picklable function of one grid coordinate returning
            either one row or (with ``flatten=True``) a list of rows.
        render: Rows-to-report function reproducing the experiment's
            printed table.
        flatten: Whether ``point`` returns a list of rows per
            coordinate (queries concatenate) rather than a single row.
    """

    name: str
    points: Callable[..., Sequence[Any]]
    point: Callable[[Any], Any]
    render: Callable[[List[Any]], str]
    flatten: bool = False

    def run(
        self,
        points: Optional[Sequence[Any]] = None,
        jobs: Optional[int] = None,
    ) -> List[Any]:
        """Every row of ``points`` (default: the spec's default grid).

        The coordinates run through :func:`grid_map`, in worker
        processes when ``jobs`` (or ``REPRO_JOBS``) allows; rows come
        back in input order, concatenated per ``flatten``.
        """
        grid = self.points() if points is None else points
        results = grid_map(self.point, grid, jobs=jobs)
        if not self.flatten:
            return results
        return [row for rows in results for row in rows]
