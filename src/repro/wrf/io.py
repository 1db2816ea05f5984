"""Split-file disk I/O.

The paper's simulation ranks "generate output for [their] subdomain and
write into a split file"; the analysis processes then read those files.
:class:`SplitFileWriter` and :class:`SplitFileReader` provide that
round-trip: one compact binary file per rank per analysis step, with the
subdomain geometry in the header and the QCLOUD/OLR arrays as payload
(NumPy ``.npz``), so the PDA pipeline can run through the filesystem
exactly as deployed — and tests can verify that nothing is lost in the
round-trip.  Both sides speak :class:`~repro.analysis.records.SplitBatch`:
the writer writes one file per present tile, and the reader pastes the
files back into one field pair over the domain's tiles, marking a file
that is absent or unreadable (a crashed or truncated writer) as missing,
so PDA's degraded mode sees disk losses as it sees injected ones.

File naming follows WRF's split-output convention:
``<prefix>_d01_<step:06d>_<rank:05d>.npz``.
"""

from __future__ import annotations

import pathlib
import re
import zipfile
import zlib

import numpy as np

from repro.analysis.records import SplitBatch, SplitFile
from repro.grid.rect import Rect
from repro.util.logging import get_logger
from repro.wrf.model import DomainConfig

__all__ = ["SplitFileWriter", "SplitFileReader", "split_file_name"]

_NAME_RE = re.compile(r"^(?P<prefix>.+)_d01_(?P<step>\d{6})_(?P<rank>\d{5})\.npz$")

#: what ``np.load`` raises on a truncated, garbled or half-written file
_UNREADABLE = (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error)

log = get_logger("wrf.io")


def _load(path: str | pathlib.Path) -> tuple[list[int], np.ndarray, np.ndarray]:
    """One split file's header and its ``(qcloud, olr)`` payload."""
    with np.load(path) as data:
        return data["meta"].tolist(), data["qcloud"], data["olr"]


def split_file_name(prefix: str, step: int, rank: int) -> str:
    """WRF-style split file name for ``rank``'s output at ``step``."""
    if step < 0 or rank < 0:
        raise ValueError(f"step and rank must be >= 0: {step}, {rank}")
    return f"{prefix}_d01_{step:06d}_{rank:05d}.npz"


class SplitFileWriter:
    """Writes one step's split files into a directory."""

    def __init__(self, directory: str | pathlib.Path, prefix: str = "wrfout") -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if "_d01_" in prefix:
            raise ValueError("prefix must not contain the domain marker '_d01_'")
        self.prefix = prefix

    def write_step(self, step: int, batch: SplitBatch) -> list[pathlib.Path]:
        """Write every present tile's split file for ``step``; returns the
        paths in rank order (a missing tile writes nothing)."""
        paths = []
        for rank in range(len(batch)):
            f = batch.file(rank)
            if f is None:
                continue
            path = self.directory / split_file_name(self.prefix, step, f.file_index)
            np.savez_compressed(
                path,
                qcloud=f.qcloud,
                olr=f.olr,
                meta=np.asarray(
                    [
                        f.file_index,
                        f.block_x,
                        f.block_y,
                        f.extent.x0,
                        f.extent.y0,
                        f.extent.w,
                        f.extent.h,
                    ],
                    dtype=np.int64,
                ),
            )
            paths.append(path)
        return paths


class SplitFileReader:
    """Reads a step's split files back from a directory."""

    def __init__(self, directory: str | pathlib.Path, prefix: str = "wrfout") -> None:
        self.directory = pathlib.Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(f"no such directory: {self.directory}")
        self.prefix = prefix

    def steps_available(self) -> list[int]:
        """Sorted analysis steps present in the directory."""
        steps = set()
        for p in self.directory.iterdir():
            m = _NAME_RE.match(p.name)
            if m and m.group("prefix") == self.prefix:
                steps.add(int(m.group("step")))
        return sorted(steps)

    def read_step(self, step: int, config: DomainConfig) -> SplitBatch:
        """Read ``step``'s split files into one batch over ``config``'s tiles.

        A rank whose file is absent, or that ``np.load`` cannot read (a
        crashed or truncated writer), is marked missing; a file whose header
        or payload disagrees with its rank's tile raises ``ValueError``
        naming the file.  A step with no files at all raises
        ``FileNotFoundError``.
        """
        if not any(self.directory.glob(f"{self.prefix}_d01_{step:06d}_*.npz")):
            raise FileNotFoundError(
                f"no split files for step {step} under {self.directory}"
            )
        x_bounds, y_bounds = config.tile_bounds()
        px = len(x_bounds) - 1
        qcloud = np.full((config.ny, config.nx), np.nan)
        olr = np.full((config.ny, config.nx), np.nan)
        missing = np.ones(config.sim_grid.nprocs, dtype=bool)
        for rank in range(len(missing)):
            path = self.directory / split_file_name(self.prefix, step, rank)
            if not path.exists():
                continue
            try:
                meta, q, o = _load(path)
            except _UNREADABLE as exc:
                log.warning("split file %s unreadable, marked missing: %s", path, exc)
                continue
            by, bx = divmod(rank, px)
            x0, x1 = x_bounds[bx], x_bounds[bx + 1]
            y0, y1 = y_bounds[by], y_bounds[by + 1]
            expected = [rank, bx, by, x0, y0, x1 - x0, y1 - y0]
            shape = (y1 - y0, x1 - x0)
            if meta != expected or q.shape != shape or o.shape != shape:
                raise ValueError(
                    f"{path}: header {meta} with payload {q.shape}/{o.shape} "
                    f"disagrees with rank {rank}'s tile {expected}"
                )
            qcloud[y0:y1, x0:x1] = q
            olr[y0:y1, x0:x1] = o
            missing[rank] = False
        return SplitBatch(qcloud, olr, x_bounds, y_bounds, missing)

    def read_one(self, step: int, rank: int) -> SplitFile:
        """Read a single rank's split file."""
        path = self.directory / split_file_name(self.prefix, step, rank)
        if not path.exists():
            raise FileNotFoundError(f"missing split file: {path}")
        return self.read_step_file(path)

    @staticmethod
    def read_step_file(path: str | pathlib.Path) -> SplitFile:
        meta, qcloud, olr = _load(path)
        rank, bx, by, x0, y0, w, h = meta
        return SplitFile(
            file_index=rank,
            block_x=bx,
            block_y=by,
            extent=Rect(x0, y0, w, h),
            qcloud=qcloud,
            olr=olr,
        )
