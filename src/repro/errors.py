"""Exception hierarchy used across the Ocelot reproduction.

All library-specific exceptions derive from :class:`ReproError` so callers
can catch a single base class at API boundaries.

Every class carries a machine-readable ``code`` (a stable snake_case
identifier) so service boundaries — the HTTP gateway in particular —
can serialise failures without string-matching messages: the gateway
maps every request-validation failure to HTTP 400 and puts
``exc.code`` in the JSON error body.  Messages may be reworded freely; codes are
a compatibility surface.
"""

from __future__ import annotations

from typing import Dict


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: Stable machine-readable identifier serialised at service
    #: boundaries (subclasses override).
    code: str = "internal_error"

    def as_payload(self) -> Dict[str, object]:
        """JSON-friendly form of the error (gateway response body)."""
        return {"error": str(self), "code": self.code, "type": type(self).__name__}


class ConfigurationError(ReproError):
    """Raised when a user-supplied configuration is invalid."""

    code = "invalid_config"


class CompressionError(ReproError):
    """Raised when compression or decompression fails."""

    code = "compression_failed"


class ErrorBoundViolation(CompressionError):
    """Raised when reconstructed data violate the requested error bound."""

    code = "error_bound_violation"

    def __init__(self, max_error: float, bound: float) -> None:
        super().__init__(
            f"maximum absolute error {max_error:.6g} exceeds bound {bound:.6g}"
        )
        self.max_error = max_error
        self.bound = bound


class EncodingError(CompressionError):
    """Raised when an entropy/lossless encoder cannot decode its input."""

    code = "encoding_failed"


class IntegrityError(EncodingError):
    """Raised when stored bytes do not match the checksum written beside them."""

    code = "integrity_failed"


class UnknownCompressorError(ConfigurationError):
    """Raised when a compressor name is not present in the registry."""

    code = "unknown_compressor"


class FeatureExtractionError(ReproError):
    """Raised when feature extraction receives unusable input."""

    code = "feature_extraction_failed"


class ModelNotFittedError(ReproError):
    """Raised when a prediction is requested from an unfitted model."""

    code = "model_not_fitted"


class DatasetError(ReproError):
    """Raised for problems constructing or loading scientific datasets."""

    code = "invalid_dataset"


class TransferError(ReproError):
    """Raised when a simulated transfer cannot be carried out."""

    code = "transfer_failed"


class EndpointNotFoundError(TransferError):
    """Raised when a transfer references an unknown endpoint."""

    code = "unknown_endpoint"


class FileNotFoundOnEndpointError(TransferError):
    """Raised when a source path does not exist on the source endpoint."""

    code = "file_not_found"


class FaaSError(ReproError):
    """Raised for failures of the simulated FuncX sites (e.g. an unknown site)."""

    code = "faas_failed"


class SchedulingError(FaaSError):
    """Raised when the simulated batch scheduler cannot satisfy a request."""

    code = "scheduling_failed"


class GroupingError(ReproError):
    """Raised when grouped-archive packing or unpacking fails."""

    code = "grouping_failed"


class OrchestrationError(ReproError):
    """Raised when the Ocelot orchestrator encounters an unrecoverable state.

    At the service submit boundary this is the *request validation*
    error (unknown mode/endpoint/route, empty dataset, bad tenant or
    priority), which is why its code reads as a client-side rejection.
    """

    code = "invalid_request"

