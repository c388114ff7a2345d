"""Content addressing for serialized models (SHA-256 over canonical bytes)."""

import hashlib

__all__ = ["blob_digest", "model_digest"]


def blob_digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def model_digest(model) -> str:
    """The digest a ``nn.ModelParams`` keeps: ``blob_digest`` of its canonical bytes."""
    return model.digest
