"""The one durable-write helper behind every fsynced file
(:func:`repro.durable.atomic_write`): whichever caller writes, a failed
write leaves the previous file byte-identical and no temp file behind."""

import os

import numpy as np
import pytest

from repro.core import HAFusionConfig
from repro.data.features import ViewSet
from repro.serving import EmbeddingService, WarmupPack
from repro.serving.warmup import _MANIFEST
from repro.train import write_checkpoint

TINY = dict(d=16, d_prime=8, conv_channels=2, memory_size=4, num_heads=2,
            intra_layers=1, inter_layers=1, fusion_layers=1, dropout=0.0)


def _checkpoint(directory, version):
    path = directory / "ckpt-00000002.ckpt"
    write_checkpoint(path, {"version": 1, "x": np.full(4, float(version))})
    return path


def _warmup_manifest(directory, version):
    rng = np.random.default_rng(0)
    views = ViewSet(names=("mobility", "poi"),
                    matrices=[rng.standard_normal((6, d)) for d in (12, 6)])
    service = EmbeddingService.build([views], HAFusionConfig(**TINY), seed=0)
    # A different grid per version, so the two manifests differ.
    WarmupPack.build(service, shape_grid=[(version, 6)], directory=directory)
    return directory / _MANIFEST


@pytest.mark.parametrize("write", [_checkpoint, _warmup_manifest],
                         ids=["checkpoint", "warmup_manifest"])
def test_failed_fsync_keeps_previous_file(write, tmp_path, monkeypatch):
    path = write(tmp_path, 1)
    before = path.read_bytes()

    def broken_fsync(fd):
        raise OSError("injected fsync failure")

    monkeypatch.setattr(os, "fsync", broken_fsync)
    with pytest.raises(OSError, match="injected fsync failure"):
        write(tmp_path, 2)
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp*")) == []
