"""Tests for split-file disk I/O."""

import numpy as np
import pytest

from repro.analysis import parallel_data_analysis
from repro.grid import ProcessorGrid
from repro.wrf import (
    DomainConfig,
    SplitFileReader,
    SplitFileWriter,
    WrfLikeModel,
    split_file_name,
)
from repro.wrf.clouds import CloudSystem


def model():
    cfg = DomainConfig(nx=64, ny=48, sim_grid=ProcessorGrid(4, 4))
    sys_ = CloudSystem(
        system_id=1, x=30, y=25, sigma_x=8, sigma_y=8,
        peak=2e-3, vx=0, vy=0, lifetime=30, age=10,
    )
    return WrfLikeModel(cfg, systems=[sys_])


class TestNaming:
    def test_format(self):
        assert split_file_name("wrfout", 12, 3) == "wrfout_d01_000012_00003.npz"

    def test_validation(self):
        with pytest.raises(ValueError):
            split_file_name("x", -1, 0)


class TestRoundTrip:
    def test_write_read_exact(self, tmp_path):
        m = model()
        files = m.write_split_files()
        writer = SplitFileWriter(tmp_path)
        paths = writer.write_step(0, files)
        assert len(paths) == 16 and all(p.exists() for p in paths)
        back = SplitFileReader(tmp_path).read_step(0, m.config)
        assert len(back) == len(files)
        assert not back.missing.any()
        for rank in range(len(files)):
            orig, rt = files.file(rank), back.file(rank)
            assert rt.file_index == orig.file_index
            assert rt.extent == orig.extent
            assert rt.block_x == orig.block_x and rt.block_y == orig.block_y
            assert np.array_equal(rt.qcloud, orig.qcloud)
            assert np.array_equal(rt.olr, orig.olr)

    def test_multiple_steps(self, tmp_path):
        m = model()
        writer = SplitFileWriter(tmp_path)
        for step in range(3):
            writer.write_step(step, m.write_split_files())
            m.step()
        reader = SplitFileReader(tmp_path)
        assert reader.steps_available() == [0, 1, 2]

    def test_read_one(self, tmp_path):
        m = model()
        SplitFileWriter(tmp_path).write_step(5, m.write_split_files())
        f = SplitFileReader(tmp_path).read_one(5, 7)
        assert f.file_index == 7

    def test_missing_step(self, tmp_path):
        m = model()
        SplitFileWriter(tmp_path).write_step(0, m.write_split_files())
        with pytest.raises(FileNotFoundError):
            SplitFileReader(tmp_path).read_step(9, m.config)

    def test_missing_rank(self, tmp_path):
        SplitFileWriter(tmp_path).write_step(0, model().write_split_files())
        with pytest.raises(FileNotFoundError):
            SplitFileReader(tmp_path).read_one(0, 99)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SplitFileReader(tmp_path / "nope")

    def test_bad_prefix(self, tmp_path):
        with pytest.raises(ValueError):
            SplitFileWriter(tmp_path, prefix="a_d01_b")

    def test_pda_through_disk(self, tmp_path):
        """The full PDA pipeline over files that went through the disk."""
        m = model()
        files = m.write_split_files()
        SplitFileWriter(tmp_path).write_step(0, files)
        back = SplitFileReader(tmp_path).read_step(0, m.config)
        direct = parallel_data_analysis(files, m.config.sim_grid, 4)
        via_disk = parallel_data_analysis(back, m.config.sim_grid, 4)
        assert sorted(map(str, direct.rectangles)) == sorted(
            map(str, via_disk.rectangles)
        )

    def test_lost_and_truncated_files_degrade_pda(self, tmp_path):
        """A crashed writer (no file) and a truncated one (half a file)
        reach PDA's degraded mode through the disk."""
        m = model()
        paths = SplitFileWriter(tmp_path).write_step(0, m.write_split_files())
        paths[7].unlink()
        paths[3].write_bytes(paths[3].read_bytes()[: paths[3].stat().st_size // 2])
        back = SplitFileReader(tmp_path).read_step(0, m.config)
        assert np.flatnonzero(back.missing).tolist() == [3, 7]
        assert back.file(3) is None and back.file(7) is None
        result = parallel_data_analysis(back, m.config.sim_grid, 4)
        assert result.partial and result.n_files_missing == 2
        assert result.n_files_corrupt == 0
        complete = parallel_data_analysis(m.write_split_files(), m.config.sim_grid, 4)
        assert result.rectangles == complete.rectangles
        assert any(r.contains_point(30, 25) for r in result.rectangles)

    def test_header_disagreeing_with_its_tile_is_rejected(self, tmp_path):
        m = model()
        paths = SplitFileWriter(tmp_path).write_step(0, m.write_split_files())
        paths[5].write_bytes(paths[6].read_bytes())  # rank 6's file under 5's name
        with pytest.raises(ValueError, match=r"wrfout_d01_000000_00005\.npz"):
            SplitFileReader(tmp_path).read_step(0, m.config)
        other = DomainConfig(nx=64, ny=48, sim_grid=ProcessorGrid(8, 2))
        with pytest.raises(ValueError, match=r"wrfout_d01_000000_00000\.npz"):
            SplitFileReader(tmp_path).read_step(0, other)
