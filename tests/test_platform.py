"""Tests for the device/platform model."""

import numpy as np
import pytest

from repro.platform import (
    Device,
    DeviceKind,
    Platform,
    amdahl_speedup,
    cpu,
    cpu_gpu_platform,
    cpu_only_platform,
    dual_fpga_platform,
    fpga,
    gpu,
    paper_platform,
)


class TestAmdahl:
    def test_perfect_parallel(self):
        assert amdahl_speedup(1.0, 16) == pytest.approx(16.0)

    def test_sequential(self):
        assert amdahl_speedup(0.0, 16) == pytest.approx(1.0)

    def test_half(self):
        assert amdahl_speedup(0.5, 4) == pytest.approx(1.0 / (0.5 + 0.125))

    def test_clamps_out_of_range(self):
        assert amdahl_speedup(1.5, 4) == amdahl_speedup(1.0, 4)
        assert amdahl_speedup(-1.0, 4) == 1.0


class TestDevice:
    def test_cpu_defaults(self):
        d = cpu()
        assert d.kind is DeviceKind.CPU
        assert d.slots == 4 and d.lanes == 4
        assert d.serializes and not d.streaming
        assert d.peak_gops == pytest.approx(d.lane_gops * d.lanes)

    def test_gpu_defaults(self):
        d = gpu()
        assert d.kind is DeviceKind.GPU
        assert d.slots == 1
        assert d.lanes > cpu().lanes
        assert d.lane_gops < cpu().lane_gops  # slow lanes, many of them

    def test_fpga_defaults(self):
        d = fpga()
        assert d.is_fpga
        assert not d.serializes and d.streaming
        assert d.area_capacity == 100.0
        assert d.peak_gops == d.stream_gops

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lane_gops=0.0, stream_gops=0.0),
            dict(lane_gops=1.0, lanes=0),
            dict(lane_gops=1.0, setup_s=-1.0),
            dict(lane_gops=1.0, area_capacity=0.0),
            dict(lane_gops=1.0, slots=0),
            dict(lane_gops=1.0, area_capacity=float("nan")),
            dict(lane_gops=1.0, area_capacity=float("inf")),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Device(name="bad", kind=DeviceKind.CPU, **kwargs)


class TestPlatform:
    def test_paper_platform_layout(self):
        p = paper_platform()
        assert p.n_devices == 3
        assert p.host_index == 0
        kinds = [d.kind for d in p.devices]
        assert kinds == [DeviceKind.CPU, DeviceKind.GPU, DeviceKind.FPGA]
        assert p.fpga_indices() == [2]

    def test_transfer_time(self):
        p = paper_platform()
        assert p.transfer_time(0, 0, 100.0) == 0.0
        t = p.transfer_time(0, 1, 100.0)
        assert t == pytest.approx(1e-4 + 0.1 / 12.0)
        # GPU <-> FPGA goes through the host: slower than either PCIe hop
        assert p.transfer_time(1, 2, 100.0) > p.transfer_time(0, 1, 100.0)

    def test_index_of_and_device(self):
        p = paper_platform()
        assert p.index_of("vega56") == 1
        assert p.device("xcz7045").is_fpga
        with pytest.raises(KeyError):
            p.index_of("nope")

    def test_area_capacities(self):
        p = paper_platform()
        assert p.area_capacities() == {2: 100.0}

    def test_kind_mask_serializes_streaming(self):
        p = paper_platform()
        assert list(p.kind_mask(DeviceKind.FPGA)) == [False, False, True]
        assert list(p.serializes()) == [True, True, False]
        assert list(p.streaming()) == [False, False, True]

    def test_validation_device0_must_be_cpu(self):
        with pytest.raises(ValueError, match="host CPU"):
            Platform([gpu()], [[np.inf]], [[0.0]])

    def test_validation_matrix_shape(self):
        with pytest.raises(ValueError, match="must be"):
            Platform([cpu()], [[np.inf, 1.0]], [[0.0]])

    def test_validation_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidths"):
            Platform(
                [cpu(), gpu()],
                [[np.inf, -1.0], [1.0, np.inf]],
                [[0.0, 0.0], [0.0, 0.0]],
            )

    def test_validation_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Platform(
                [cpu("x"), gpu("x")],
                [[np.inf, 1.0], [1.0, np.inf]],
                [[0.0, 0.0], [0.0, 0.0]],
            )

    def test_presets_build(self):
        assert cpu_only_platform().n_devices == 1
        assert cpu_gpu_platform().n_devices == 2
        assert dual_fpga_platform().n_devices == 3
        assert len(dual_fpga_platform().fpga_indices()) == 2

    def test_matrices_read_only(self):
        p = paper_platform()
        with pytest.raises(ValueError):
            p.bandwidth_gbps[0, 1] = 5.0

    def test_repr(self):
        assert "cpu" in repr(paper_platform())
