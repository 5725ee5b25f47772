"""Tests for the machine natives' guest-visible error behaviour.

Host-detected faults in native calls surface as *guest* exceptions, so a
guest program can catch them with try/catch — and, crucially for TDR, the
control flow taken is identical in play and replay (the fault is a
deterministic function of guest state).
"""

import pytest

from repro.apps import compile_app
from repro.core.tdr import play, replay
from repro.determinism import SplitMix64
from repro.errors import GuestError
from repro.machine import InteractiveClient, MachineConfig, Request


def run(source, workload=None, seed=0, covert_schedule=None):
    program = compile_app(source)
    return play(program, MachineConfig(), workload=workload, seed=seed,
                covert_schedule=covert_schedule)


class TestNativeFaults:
    def test_send_packet_bad_length_throws_catchable(self):
        result = run("""
        void main() {
            int[] buf = new int[4];
            try {
                send_packet(buf, 10);
            } catch (e) {
                print_int(e);
            }
            exit();
        }
        """)
        assert result.console == [-2]   # EXC_INDEX_OUT_OF_BOUNDS
        assert result.tx == []

    def test_send_packet_negative_length(self):
        result = run("""
        void main() {
            int[] buf = new int[4];
            try { send_packet(buf, 0 - 1); } catch (e) { print_int(e); }
            exit();
        }
        """)
        assert result.console == [-2]

    def test_storage_read_negative_block(self):
        result = run("""
        void main() {
            int[] buf = new int[64];
            try { storage_read(0 - 5, buf); } catch (e) { print_int(e); }
            exit();
        }
        """)
        assert result.console == [-2]

    def test_null_buffer_faults_when_packet_arrives(self):
        from repro.machine import ScriptedArrivals

        # recv into a null buffer is harmless while nothing is pending
        # (the copy never happens) and faults the moment a packet lands.
        result = run("""
        void main() {
            int[] nothing;
            print_int(recv_packet(nothing));    // nothing pending: -1
            try { wait_packet(nothing); } catch (e) { print_int(e); }
            exit();
        }
        """, workload=ScriptedArrivals([(1_000_000, b"ping")]))
        assert result.console == [-1, -3]   # then EXC_NULL_REFERENCE

    def test_covert_delay_negative(self):
        result = run("""
        void main() {
            try { covert_delay(0 - 100); } catch (e) { print_int(e); }
            exit();
        }
        """)
        assert result.console == [-2]

    def test_busy_cycles_negative(self):
        result = run("""
        void main() {
            try { busy_cycles(0 - 1); } catch (e) { print_int(e); }
            exit();
        }
        """)
        assert result.console == [-2]

    def test_spawn_bad_function_index(self):
        result = run("""
        void main() {
            // spawn() is type-checked in MiniJ, so exercise the raw
            // native path indirectly via a bad index computed at runtime
            // is impossible from MiniJ; instead check the checked path.
            print_int(1);
            exit();
        }
        """)
        assert result.console == [1]

    def test_uncaught_native_fault_kills_guest(self):
        with pytest.raises(GuestError):
            run("""
            void main() {
                int[] buf = new int[2];
                send_packet(buf, 99);
                exit();
            }
            """)


class TestNativeFaultReplayConsistency:
    def test_fault_path_replays_identically(self):
        """A guest that catches a native fault replays bit-identically:
        the fault is deterministic guest state, not noise."""
        source = """
        void main() {
            int[] buf = new int[4];
            int[] request = new int[64];
            int n = wait_packet(request);
            try {
                send_packet(buf, request[0]);   // too long: throws
            } catch (e) {
                buf[0] = 0 - e;
                send_packet(buf, 2);            // report the error code
            }
            exit();
        }
        """
        program = compile_app(source)
        workload = InteractiveClient([Request(bytes([99]))], SplitMix64(5))
        observed = play(program, MachineConfig(), workload=workload, seed=0)
        assert observed.tx[0][1][0] == 2   # -(-2)
        reference = replay(program, observed.log, MachineConfig(), seed=9)
        assert [p for _, p in reference.tx] == [p for _, p in observed.tx]
        assert reference.instructions == observed.instructions


class TestBusyCycles:
    def test_busy_cycles_advance_clock_not_instructions(self):
        quiet = run("void main() { exit(); }")
        busy = run("void main() { busy_cycles(5000000); exit(); }")
        assert busy.total_cycles > quiet.total_cycles + 4_000_000
        assert busy.instructions <= quiet.instructions + 3

    def test_busy_cycles_deterministic_with_zero_sigma(self):
        source = "void main() { busy_cycles(1000000); exit(); }"
        program = compile_app(source)
        config = MachineConfig(speculation_sigma=0.0)
        a = play(program, config, seed=1)
        b = play(program, config, seed=2)
        assert a.total_cycles == b.total_cycles


class TestHopelessWait:
    def test_blocked_wait_with_client_awaiting_reply_returns(self):
        """A guest that waits again without replying blocks while the
        client still awaits its reply: nothing is staged or queued, and
        a blocked guest cannot transmit, so no packet can ever arrive.
        The wait must report end-of-input instead of spinning forever
        (natives are atomic, so the instruction budget never fires)."""
        source = """
        void main() {
            int[] buf = new int[16];
            print_int(wait_packet(buf));
            print_int(wait_packet(buf));
            exit();
        }
        """
        workload = InteractiveClient(
            [Request(bytes([1, 2, 3])), Request(bytes([4]))], SplitMix64(5))
        program = compile_app(source)
        result = play(program, MachineConfig(), workload=workload,
                      max_instructions=100_000)
        assert result.console == [3, -1]
        assert not workload.finished()
        reference = replay(program, result.log, MachineConfig(), seed=9)
        assert reference.console == result.console
        assert reference.instructions == result.instructions
