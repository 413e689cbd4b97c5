"""The registry and the Table 3 programming contract."""

import dataclasses

import pytest

from repro import cc
from repro.cc.base import CCAlgorithm, CCMode, IntrinsicOutput, OpCounts
from repro.errors import CCModuleError, ConfigError
from repro.fpga.cc_module import CCModuleRuntime, cust_block_bytes
from repro.fpga.flow import FlowState


def flow_record(alg, flow_id=1):
    """A flow's BRAM record holding ``alg``'s initial CC state."""
    return FlowState(
        flow_id=flow_id, port_index=0, src_addr=1, dst_addr=2,
        size_packets=10, frame_bytes=1024, cwnd_or_rate=1.0,
        cust=alg.initial_cust(), slow=alg.initial_slow(),
    )


class TestRegistry:
    def test_builtins_available(self):
        names = cc.available()
        for expected in ("reno", "dctcp", "dcqcn", "cubic", "timely"):
            assert expected in names

    def test_create_with_params(self):
        alg = cc.create("reno", initial_ssthresh=128.0)
        assert alg.initial_ssthresh == 128.0

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            cc.create("bbr")

    def test_register_custom(self):
        @cc.register
        class MyCC(cc.Reno):
            name = "test-mycc"

        try:
            assert isinstance(cc.create("test-mycc"), MyCC)
        finally:
            from repro.cc import registry

            registry._REGISTRY.pop("test-mycc", None)

    def test_reregister_same_class_ok(self):
        from repro.cc import registry

        registry.register(cc.Reno)  # idempotent

    def test_register_conflicting_name_rejected(self):
        with pytest.raises(ConfigError):

            @cc.register
            class FakeReno(cc.Dctcp):
                name = "reno"

    def test_abstract_name_rejected(self):
        class Nameless(cc.Reno):
            name = "abstract"

        with pytest.raises(ConfigError):
            cc.register(Nameless)


class TestTable3Contract:
    def test_cust_blocks_fit_64_bytes(self):
        """Table 3: the customized variable block is at most 64 B."""
        for name in cc.available():
            alg = cc.create(name)
            assert cust_block_bytes(alg.initial_cust()) <= cc.CUST_VAR_BYTES

    def test_cust_must_be_dataclass(self):
        with pytest.raises(CCModuleError):
            cust_block_bytes(object())

    def test_oversized_cust_rejected(self):
        fields = {f"f{i}": (int, dataclasses.field(default=0)) for i in range(20)}
        Huge = dataclasses.make_dataclass(
            "Huge", [(n, t, d) for n, (t, d) in fields.items()]
        )

        class HugeCC(cc.Reno):
            name = "test-huge"

            def initial_cust(self):
                return Huge()

        with pytest.raises(CCModuleError):
            CCModuleRuntime(HugeCC())

    def test_fast_path_may_not_write_slow_vars(self):
        """Simple dual-port BRAM ownership (Section 5.1)."""

        class BadCC(cc.Dctcp):
            name = "test-bad"

            def on_event(self, intr, cust, slow):
                slow.alpha = 0.123  # illegal write
                return IntrinsicOutput()

        runtime = CCModuleRuntime(BadCC(), check_contracts=True)
        alg = runtime.algorithm
        intr = cc.IntrinsicInput(
            evt_type=cc.EventType.RX,
            psn=1,
            cwnd_or_rate=1.0,
            una=0,
            nxt=0,
            flags=cc.Flags(ack=True),
            prb_rtt=-1,
            tstamp=0,
        )
        with pytest.raises(CCModuleError):
            runtime.invoke(flow_record(alg), intr)

    def test_legal_fast_path_passes_contract_check(self):
        runtime = CCModuleRuntime(cc.Dctcp(), check_contracts=True)
        intr = cc.IntrinsicInput(
            evt_type=cc.EventType.RX,
            psn=1,
            cwnd_or_rate=1.0,
            una=1,
            nxt=1,
            flags=cc.Flags(ack=True),
            prb_rtt=-1,
            tstamp=0,
        )
        out = runtime.invoke(flow_record(runtime.algorithm), intr)
        assert out.cwnd_or_rate is not None

    def test_validate_rejects_nameless(self):
        class NoName(CCAlgorithm):
            def initial_cust(self):
                return None

            def initial_cwnd_or_rate(self, link_rate_bps):
                return 1.0

            def on_event(self, intr, cust, slow):
                return IntrinsicOutput()

        with pytest.raises(CCModuleError):
            NoName().validate()

    def test_runtime_counts_invocations_and_charges_rmw(self):
        runtime = CCModuleRuntime(cc.Reno())
        intr = cc.IntrinsicInput(
            evt_type=cc.EventType.RX,
            psn=1,
            cwnd_or_rate=1.0,
            una=1,
            nxt=1,
            flags=cc.Flags(ack=True),
            prb_rtt=-1,
            tstamp=0,
        )
        flow = flow_record(runtime.algorithm)
        runtime.invoke(flow, intr)
        assert runtime.invocations == 1
        assert flow.rmw_end_ps == runtime.rmw_duration_ps

    def test_ops_declared_for_builtins(self):
        for name in cc.available():
            ops = cc.create(name).ops
            assert isinstance(ops, OpCounts)
            total = (
                ops.add_sub + ops.compare + ops.shift + ops.mul32
                + ops.div16 + ops.div32 + ops.cube_root_lut
            )
            assert total > 0
