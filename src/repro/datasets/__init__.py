"""Synthetic scientific datasets mirroring the applications in the paper.

The paper evaluates on CESM (climate), RTM (seismic imaging), Miranda
(hydrodynamics), Nyx (cosmology), Hurricane ISABEL (weather), QMCPACK
(electronic structure) and HACC (cosmology particles).  Real data from
those applications is not redistributable/available offline, so this
package generates synthetic fields whose dimensionality, value ranges and
smoothness character match the published descriptions (Table I and
Table IV), which preserves the qualitative compressibility differences
the quality-prediction model must learn.
"""

from __future__ import annotations

from .base import Field, ScientificDataset
from .generators import (
    spectral_field, wave_field, vortex_field, lognormal_field, rescale_to_range,
)
from .applications import (
    APPLICATIONS, ApplicationSpec, FieldSpec, application_names, get_application_spec,
)
from .registry import generate_application, generate_field

__all__ = [
    "Field", "ScientificDataset", "spectral_field", "wave_field", "vortex_field", "lognormal_field",
    "rescale_to_range", "APPLICATIONS", "ApplicationSpec", "FieldSpec", "application_names",
    "get_application_spec", "generate_application", "generate_field",
]
