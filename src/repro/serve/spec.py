"""Campaign specs: the JSON vocabulary ``repro serve`` accepts.

A *spec* is the wire-format description of one campaign — a CC
parameter sweep or a fluid FCT grid — with every knob spelled out.
Parsing normalizes it (defaults applied, types checked, unknown keys
rejected) into a frozen :class:`CampaignSpec`, whose canonical config
dict feeds :func:`repro.obs.manifest.config_hash`; two requests that
mean the same campaign therefore hash — and cache — identically,
regardless of key order or which defaults the client spelled out.

The two kinds (``sweep``, ``fluid``), their fields and defaults are
tabulated once, in ``docs/SERVING.md``; ``repro sweep`` / ``repro
fluid`` build the same payload from their flags, so the CLI, the daemon
and ``repro submit`` share this validator, :meth:`CampaignSpec.run` and
one config hash per campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import repro.cc as cc
from repro.errors import ConfigError, as_int, as_number, require
from repro.net.fabric import DEFAULT_ECN_THRESHOLD_BYTES
from repro.obs.manifest import config_hash
from repro.units import MS

_SWEEP_DEFAULTS: dict[str, Any] = {
    "grid": [{}],
    "n_senders": 3,
    "duration_ms": 6.0,
    "ecn_threshold_bytes": DEFAULT_ECN_THRESHOLD_BYTES,
    "seeds": None,
    "seed": 0,
    # A check on the engine the tasks run on (see repro.sim.backend):
    # "python"/"compiled" must name the engine this process loaded.
    # Normalized into the hashed config: spelling out "auto" and
    # omitting the field cache identically, while naming the engine is
    # a distinct (separately cached) campaign — the stats block in the
    # cached payload records wall-clock facts of that engine.
    "sim_backend": "auto",
}

_FLUID_DEFAULTS: dict[str, Any] = {
    "workload": "websearch",
    "flows_per_port_levels": [8],
    "flows_total": 50_000,
    "n_ports": 12,
    "seed": 0,
}


@dataclass(frozen=True)
class CampaignSpec:
    """One validated, normalized campaign request.

    ``config`` is the canonical parameterization (defaults applied,
    JSON-safe); ``config_hash`` keys the daemon's result cache and the
    run manifest.  ``n_tasks`` sizes progress reporting.
    """

    kind: str
    config: dict[str, Any]
    n_tasks: int

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    def describe(self) -> str:
        if self.kind == "sweep":
            return (
                f"sweep {self.config['algorithm']} x{len(self.config['grid'])} "
                f"point(s), {self.config['duration_ms']} ms"
            )
        return (
            f"fluid {','.join(self.config['algorithms'])} "
            f"x{len(self.config['flows_per_port_levels'])} level(s), "
            f"{self.config['flows_total']} flows"
        )

    # -- execution -------------------------------------------------------------

    def run(
        self,
        runner: Any,
        on_heartbeat: Optional[Callable] = None,
        *,
        timeseries_dir: Optional[str] = None,
        timeseries_sample_every: int = 1,
    ) -> dict[str, Any]:
        """Execute this campaign on ``runner`` (a
        :class:`~repro.parallel.CampaignRunner`) and return the
        JSON-safe result payload the daemon caches and serves and the
        CLI prints.  Where it runs and what it leaves behind — the
        runner's workers and results dir, the columnar solver's
        per-cell ``timeseries_dir`` — never enter the hashed config."""
        import dataclasses

        c = self.config
        if timeseries_dir is not None and self.kind != "fluid":
            raise ConfigError("timeseries output is a fluid campaign feature")
        if self.kind == "sweep":
            from repro.core.sweep import sweep_campaign

            points, campaign = sweep_campaign(
                c["algorithm"],
                [dict(params) for params in c["grid"]],
                n_senders=c["n_senders"],
                duration_ps=round(c["duration_ms"] * MS),
                ecn_threshold_bytes=c["ecn_threshold_bytes"],
                seed=c["seed"],
                sim_backend=c["sim_backend"],
                runner=runner,
                on_heartbeat=on_heartbeat,
            )
        else:
            from repro.fluid import PROFILES, fluid_fct_campaign
            from repro.workload import DISTRIBUTIONS

            points, campaign = fluid_fct_campaign(
                [PROFILES[name]() for name in c["algorithms"]],
                DISTRIBUTIONS[c["workload"]](),
                workload=c["workload"],
                flows_per_port_levels=c["flows_per_port_levels"],
                flows_total=c["flows_total"],
                n_ports=c["n_ports"],
                seed=c["seed"],
                runner=runner,
                timeseries_dir=timeseries_dir,
                timeseries_sample_every=timeseries_sample_every,
                on_heartbeat=on_heartbeat,
            )
        return {
            "kind": self.kind,
            "points": [dataclasses.asdict(point) for point in points],
            "stats": campaign.stats(),
        }


def _parse_sweep(payload: dict[str, Any]) -> CampaignSpec:
    config: dict[str, Any] = {"kind": "sweep"}
    require("algorithm" in payload, "sweep spec requires 'algorithm'")
    algorithm = payload["algorithm"]
    require(
        isinstance(algorithm, str) and bool(algorithm),
        f"'algorithm' must be a non-empty string, got {algorithm!r}",
    )
    config["algorithm"] = algorithm

    merged = {**_SWEEP_DEFAULTS, **{k: v for k, v in payload.items()
                                    if k not in ("kind", "algorithm")}}
    grid = merged["grid"]
    require(
        isinstance(grid, list) and len(grid) >= 1,
        "'grid' must be a non-empty list of parameter dicts",
    )
    for entry in grid:
        require(isinstance(entry, dict), f"grid entries must be dicts, got {entry!r}")
    config["grid"] = [dict(sorted(entry.items())) for entry in grid]
    for index, entry in enumerate(config["grid"]):
        # Build the module once here so an unknown algorithm, parameter
        # name, type or value is a 400 / exit 2, not a failed pool task:
        # the CC's parameter table is the one check of grid values.
        try:
            cc.create(algorithm, **entry)
        except ConfigError as exc:
            raise ConfigError(f"'grid' entry {index}: {exc}") from None
    config["n_senders"] = as_int(merged["n_senders"], "n_senders", minimum=2)
    duration_ms = as_number(merged["duration_ms"], "duration_ms")
    require(duration_ms > 0, "'duration_ms' must be positive")
    config["duration_ms"] = duration_ms
    config["ecn_threshold_bytes"] = as_int(
        merged["ecn_threshold_bytes"], "ecn_threshold_bytes", minimum=1
    )
    # A point is a fixed-size fan-in that draws nothing from its seed,
    # so replicates would be identical runs.  The field stays only so
    # that config_hash does not move.
    seeds = merged["seeds"]
    require(
        seeds is None or as_int(seeds, "seeds") == 1,
        f"'seeds' must be null or 1, got {seeds!r}: a sweep point draws "
        "nothing from its seed, so replicates would be identical runs",
    )
    config["seeds"] = seeds
    config["seed"] = as_int(merged["seed"], "seed", minimum=0)
    sim_backend = merged["sim_backend"]
    if sim_backend is None:
        sim_backend = "auto"
    from repro.sim.backend import check

    try:
        check(sim_backend)
    except ConfigError as exc:
        raise ConfigError(f"'sim_backend': {exc}") from None
    config["sim_backend"] = sim_backend
    return CampaignSpec(kind="sweep", config=config, n_tasks=len(grid))


def _parse_fluid(payload: dict[str, Any]) -> CampaignSpec:
    config: dict[str, Any] = {"kind": "fluid"}
    require("algorithms" in payload, "fluid spec requires 'algorithms'")
    algorithms = payload["algorithms"]
    if isinstance(algorithms, str):
        algorithms = [name.strip() for name in algorithms.split(",") if name.strip()]
    require(
        isinstance(algorithms, list) and len(algorithms) >= 1,
        "'algorithms' must be a non-empty list of fluid profile names",
    )
    from repro.fluid import PROFILES
    from repro.workload import DISTRIBUTIONS

    unknown = sorted(set(algorithms) - set(PROFILES))
    require(not unknown, f"unknown fluid profile(s) {unknown}; "
                          f"choose from {sorted(PROFILES)}")
    config["algorithms"] = list(algorithms)

    merged = {**_FLUID_DEFAULTS, **{k: v for k, v in payload.items()
                                    if k not in ("kind", "algorithms")}}
    require(
        merged["workload"] in DISTRIBUTIONS,
        f"'workload' must be one of {sorted(DISTRIBUTIONS)}, "
        f"got {merged['workload']!r}",
    )
    config["workload"] = merged["workload"]
    levels = merged["flows_per_port_levels"]
    require(
        isinstance(levels, list) and len(levels) >= 1,
        "'flows_per_port_levels' must be a non-empty list of ints",
    )
    config["flows_per_port_levels"] = [
        as_int(level, "flows_per_port_levels", minimum=1) for level in levels
    ]
    config["flows_total"] = as_int(merged["flows_total"], "flows_total", minimum=1)
    config["n_ports"] = as_int(merged["n_ports"], "n_ports", minimum=1)
    config["seed"] = as_int(merged["seed"], "seed", minimum=0)
    n_tasks = len(algorithms) * len(levels)
    return CampaignSpec(kind="fluid", config=config, n_tasks=n_tasks)


_PARSERS = {"sweep": _parse_sweep, "fluid": _parse_fluid}

_KNOWN_FIELDS = {
    "sweep": {"kind", "algorithm"} | set(_SWEEP_DEFAULTS),
    "fluid": {"kind", "algorithms"} | set(_FLUID_DEFAULTS),
}


def parse_spec(payload: Any) -> CampaignSpec:
    """Validate and normalize one JSON campaign spec.

    Raises :class:`~repro.errors.ConfigError` with an actionable message
    on any shape problem — the daemon maps these onto HTTP 400s, so the
    message *is* the API's error surface.
    """
    require(isinstance(payload, dict), "campaign spec must be a JSON object")
    kind = payload.get("kind")
    require(
        kind in _PARSERS,
        f"spec 'kind' must be one of {sorted(_PARSERS)}, got {kind!r}",
    )
    unknown = sorted(set(payload) - _KNOWN_FIELDS[kind])
    require(not unknown, f"unknown spec field(s) {unknown} for kind {kind!r}")
    return _PARSERS[kind](payload)
