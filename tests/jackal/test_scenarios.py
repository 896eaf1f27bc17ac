"""Scripted protocol walkthroughs.

Each test replays one concrete scenario on the model, asserting the
protocol state after every phase — executable documentation of the
semantics described in docs/protocol.md. A checkpoint replays the
labels so far (:func:`~repro.lts.trace.replay`, which refuses a label
that is not enabled) and decodes the state they end in.
"""

import dataclasses

from repro.jackal import CONFIG_1, Config, JackalModel, ProtocolVariant
from repro.lts.trace import replay


def model(config=CONFIG_1, variant=ProtocolVariant.fixed()):
    return JackalModel(dataclasses.replace(config, with_probes=False), variant)


def at(m: JackalModel, labels: list[str]) -> dict:
    """The decoded state ``labels`` lead to from the initial state."""
    return m.decode_state(replay(m, labels).states[-1])


def homes(d: dict) -> list[int]:
    return [c[0]["home"] for c in d["copies"]]


def writers(d: dict, pid: int) -> list[int]:
    return d["copies"][pid][0]["writers"]


class TestAtHomeWrite:
    def test_full_round(self):
        m = model()
        steps = ["write(t0)"]  # t0 is at the initial home p0
        assert at(m, steps)["threads"][0]["phase"] == "WANT_SERVER"
        steps += ["lock_server(t0,p0)", "writeover(t0)"]
        d = at(m, steps)
        assert d["threads"][0]["dirty"] == [0]
        assert writers(d, 0) == [0]
        assert d["copies"][0][0]["localthreads"] == 1
        steps += [
            "flush(t0)", "lock_flush(t0,p0)", "flush_home(t0,p0)",
            "flushover(t0)",
        ]
        d = at(m, steps)
        assert d["threads"][0]["rounds_left"] == 0
        assert writers(d, 0) == []
        assert d["copies"][0][0]["state"] == "UNUSED"


class TestRemoteWriteWithCase1Migration:
    def test_full_round(self):
        m = model()
        # t1 on p1, home is p0: remote path
        steps = ["write(t1)", "lock_fault(t1,p1)", "send_datareq(t1,p1,p0)"]
        assert at(m, steps)["homequeue"][0][0] == "REQ"
        # p1 is the only writing processor: migration case 1 fires
        steps += ["lock_homequeue(p0)", "send_dataret_mig(p0,p1)"]
        assert homes(at(m, steps))[0] == 1  # old home already points away
        steps += ["lock_remotequeue(p1)", "signal(t1,p1)"]
        assert homes(at(m, steps)) == [1, 1]  # both point at the new home p1
        steps += ["writeover(t1)"]
        assert writers(at(m, steps), 1) == [1]
        # flush is now an at-home flush on p1
        steps += [
            "flush(t1)", "lock_flush(t1,p1)", "flush_home(t1,p1)",
            "flushover(t1)",
        ]
        assert homes(at(m, steps)) == [1, 1]


class TestCase2MigrationViaFlush:
    def test_home_follows_the_writer(self):
        # two writers; the at-home one flushes last and hands the home
        # to the remaining remote writer
        m = model()
        # t0 writes at home p0
        steps = ["write(t0)", "lock_server(t0,p0)", "writeover(t0)"]
        # t1 writes remotely; writers = {p0, p1}: no case-1 migration
        steps += [
            "write(t1)", "lock_fault(t1,p1)", "send_datareq(t1,p1,p0)",
            "lock_homequeue(p0)", "send_dataret(p0,p1)",
            "lock_remotequeue(p1)", "signal(t1,p1)", "writeover(t1)",
        ]
        assert sorted(writers(at(m, steps), 0)) == [0, 1]
        # t0 flushes: only p1 keeps writing -> case-2 migration to p1
        steps += ["flush(t0)", "lock_flush(t0,p0)", "flush_home_migrate(t0,p0,p1)"]
        d = at(m, steps)
        assert homes(d)[0] == 1
        assert d["migrations"][1][0] is not None
        steps += ["recv_sponmigrate(p1)"]
        d = at(m, steps)
        assert homes(d) == [1, 1]
        assert writers(d, 1) == [1]


class TestErrorOneMechanism:
    def test_stale_wait_step_by_step(self):
        cfg = dataclasses.replace(CONFIG_1, rounds=None)
        m = model(cfg, ProtocolVariant.error1())
        # round 1: t1 writes remotely, home migrates to p1 (case 1)
        steps = [
            "write(t1)", "lock_fault(t1,p1)", "send_datareq(t1,p1,p0)",
            "lock_homequeue(p0)", "send_dataret_mig(p0,p1)",
            "lock_remotequeue(p1)", "signal(t1,p1)", "writeover(t1)",
        ]
        # t0 now writes remotely towards p1
        steps += ["write(t0)", "lock_fault(t0,p0)", "send_datareq(t0,p0,p1)"]
        # t1 flushes at home: t0's processor is in the writer list
        # (request processed first), and after t1's flush only p0
        # writes -> the home migrates onto the WAITING t0's processor
        steps += ["lock_homequeue(p1)", "send_dataret(p1,p0)"]
        steps += [
            "flush(t1)", "lock_flush(t1,p1)", "flush_home_migrate(t1,p1,p0)",
            "recv_sponmigrate(p0)",
        ]
        assert homes(at(m, steps)) == [0, 0]
        # t0's Data Return is still pending; deliver it, then complete.
        # In the buggy variant the NEXT write of t0 will hit the stale
        # path; drive t0 to it
        steps += ["lock_remotequeue(p0)", "signal(t0,p0)", "writeover(t0)"]
        steps += ["flush(t0)", "lock_flush(t0,p0)", "flush_home(t0,p0)",
                  "flushover(t0)"]
        replay(m, steps)
        # t0 starts a new write; p0 IS the home, but interleavings exist
        # where the home migrates after the access check. Simplest
        # visible fact: the buggy model still offers stale_remote_wait
        # transitions somewhere in its state space
        from repro.lts.explore import explore

        lts = explore(m)
        assert any(l.startswith("stale_remote_wait") for l in lts.labels)


class TestForwarding:
    def test_request_follows_migrated_home(self):
        # three processors: a request addressed to a stale home gets
        # forwarded to the current one
        m = model(Config(threads_per_processor=(1, 1, 1), rounds=2))
        # t1 (p1) writes remotely -> case-1 migration p0 -> p1
        steps = [
            "write(t1)", "lock_fault(t1,p1)", "send_datareq(t1,p1,p0)",
            "lock_homequeue(p0)", "send_dataret_mig(p0,p1)",
            "lock_remotequeue(p1)", "signal(t1,p1)", "writeover(t1)",
        ]
        # t2 (p2) still believes p0 is the home: its copy was never
        # refreshed. Its request lands at p0 and is forwarded to p1.
        assert homes(at(m, steps))[2] == 0
        steps += [
            "write(t2)", "lock_fault(t2,p2)", "send_datareq(t2,p2,p0)",
            "lock_homequeue(p0)", "forward_req(p0,p1)",
        ]
        assert at(m, steps)["homequeue"][1][0] == "REQ"
        # p1 answers (t1 still writes, so no further migration)
        steps += ["lock_homequeue(p1)", "send_dataret(p1,p2)"]
        steps += ["lock_remotequeue(p2)", "signal(t2,p2)", "writeover(t2)"]
        assert homes(at(m, steps))[2] == 1  # refreshed to the true home
