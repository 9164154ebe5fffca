"""The :class:`Scenario` dataclass and its JSON round trip.

A scenario file looks like::

    {
      "name": "narrowband-noise",
      "description": "parabolic BHSS vs a 0.625 MHz noise jammer",
      "config": {"pattern": "parabolic", "seed": 42, "payload_bytes": 8},
      "jammer": {"type": "noise", "bandwidth": 625000.0},
      "channel": null,
      "impairments": null,
      "grid": {"snr_db": [15.0], "sjr_db": [0.0, -5.0, -10.0]},
      "packets": 20,
      "seed": 7
    }

``config`` fields are optional and default to the paper's system
(:meth:`BHSSConfig.from_dict`); a jammer spec may omit ``sample_rate`` and
inherit the link's.  Validation failures raise :class:`ScenarioError`
naming the offending field (``"jammer.bandwith: ..."`` style), so a typo
in a fleet of JSON files is a one-line diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.channel.registry import channel_from_spec, impairments_from_spec
from repro.core.config import BHSSConfig
from repro.jamming.base import Jammer
from repro.jamming.registry import jammer_from_spec
from repro.utils.specfile import NO_JAMMER, SpecError, SpecFile, flatten_grid, grid_values

__all__ = ["Scenario", "ScenarioError"]

#: the spec-file error, under the name this family has always exported
ScenarioError = SpecError


@dataclass(frozen=True)
class Scenario(SpecFile):
    """A complete, serializable evaluation scenario.

    Attributes
    ----------
    name:
        Identifier used in reports, file names and cache keys.
    config:
        The BHSS link configuration under test.
    jammer:
        Registry spec of the attacker (``{"type": "noise", ...}``; see
        :mod:`repro.jamming.registry`).  ``sample_rate`` may be omitted.
    snr_db, sjr_db:
        Operating-point grid: the scenario evaluates the cross product.
    packets:
        Packet budget per grid point.
    seed:
        Run seed for the packet batch (the *link's* pre-shared seed lives
        in ``config.seed``).
    channel:
        Optional propagation-channel spec (``{"type": "multipath", ...}``).
    impairments:
        Optional front-end impairment spec
        (:meth:`~repro.channel.impairments.Impairments.to_dict` layout).
    description:
        Free-text note carried through the JSON file.
    """

    name: str
    config: BHSSConfig = field(default_factory=BHSSConfig.paper_default)
    jammer: dict = field(default_factory=lambda: dict(NO_JAMMER))
    snr_db: tuple[float, ...] = (15.0,)
    sjr_db: tuple[float, ...] = (-10.0,)
    packets: int = 20
    seed: int = 0
    channel: dict | None = None
    impairments: dict | None = None
    description: str = ""

    KIND = "scenario"
    FIELDS = frozenset({
        "name", "description", "config", "jammer", "channel",
        "impairments", "grid", "packets", "seed", "backend",
    })

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.config, BHSSConfig):
            raise ScenarioError("config: must be a BHSSConfig (use from_dict for specs)")
        if not isinstance(self.jammer, dict):
            raise ScenarioError("jammer: must be a registry spec mapping")
        object.__setattr__(self, "snr_db", grid_values(self.snr_db, "grid.snr_db"))
        object.__setattr__(self, "sjr_db", grid_values(self.sjr_db, "grid.sjr_db"))
        if isinstance(self.packets, bool) or not isinstance(self.packets, int) or self.packets < 1:
            raise ScenarioError("packets: must be an integer >= 1")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ScenarioError("seed: must be an integer")

    # -- construction ---------------------------------------------------------

    def build(self) -> tuple["LinkSimulator", Jammer]:
        """A ready link simulator and jammer built from the specs."""
        from repro.core.link import LinkSimulator

        try:
            jammer = jammer_from_spec(self.jammer, sample_rate=self.config.sample_rate)
        except ValueError as exc:
            raise ScenarioError(f"jammer: {exc}") from None
        try:
            channel = channel_from_spec(self.channel)
        except ValueError as exc:
            raise ScenarioError(f"channel: {exc}") from None
        try:
            impairments = impairments_from_spec(self.impairments)
        except ValueError as exc:
            raise ScenarioError(f"impairments: {exc}") from None
        link = LinkSimulator(self.config, impairments=impairments, channel=channel)
        return link, jammer

    def validate(self) -> "Scenario":
        """Deep-check the component specs (builds them once); returns self."""
        self.build()
        return self

    def points(self) -> list[tuple[float, float]]:
        """The (snr_db, sjr_db) grid points, SNR-major order."""
        return [(snr, sjr) for snr in self.snr_db for sjr in self.sjr_db]

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless JSON-able spec; :meth:`from_dict` inverts it."""
        out: dict = {
            "name": self.name,
            "config": self.config.to_dict(),
            "jammer": self.jammer,
            "grid": {"snr_db": list(self.snr_db), "sjr_db": list(self.sjr_db)},
            "packets": int(self.packets),
            "seed": int(self.seed),
        }
        if self.description:
            out["description"] = self.description
        if self.channel is not None:
            out["channel"] = self.channel
        if self.impairments is not None:
            out["impairments"] = self.impairments
        return out

    @classmethod
    def _from_fields(cls, data: dict[str, Any]) -> Scenario:
        # Older spec files may pin the (only) NumPy compute path; the
        # key is accepted and dropped so to_dict never emits it.
        if data.get("backend", "numpy") != "numpy":
            raise ScenarioError(f"backend: only 'numpy' is supported, got {data['backend']!r}")
        kwargs = flatten_grid(data)
        kwargs.pop("backend", None)
        return cls(**kwargs)
