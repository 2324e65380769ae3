"""Property suite: seeded interleavings over pure replica cores.

The failover chaos suites drive bare replica cores over a simulated
backbone that is kind: FIFO, lossless, one view change at a time, commit
knowledge at every survivor before an election.  This suite is the
unkind one.  N bare :class:`~repro.jupiter.replication.Replica` cores
exchange the replication frames' *meaning* through a model of what TCP
and asyncio actually allow — stop-and-wait connections that start with an install,
get reset, and leave zombies whose last frame still arrives after the
re-dial's; acks and offers that are lost; replicas that crash and come
back with their disk; failure detectors that misfire while the primary
lives; two candidates at once; commit knowledge that lags arbitrarily —
and every safety invariant is checked after every step (the abstract
network + pure interpretation method of Gomes et al., PAPERS.md).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jupiter.persistence import ServerWriteAheadLog
from repro.jupiter.replication import Replica, primary_for, quorum_size


def identity(record):
    return (record["origin"], tuple(record["operation"]["opid"]))


class Conn:
    """One primary->backup connection: stop-and-wait, install first."""

    def __init__(self, p, b, frame):
        self.p, self.b = p, b
        self.frame = frame  # in flight p -> b, or None
        self.reply = None  # in flight b -> p, or None
        self.shipped = 0
        self.open = True  # the primary's shipping task still drives it


class Group:
    def __init__(self, seed, replicas):
        self.rng = random.Random(seed)
        self.ids = [f"s{i}" for i in range(replicas)]
        self.quorum = quorum_size(replicas)
        self.cores = {
            rid: Replica(
                self.ids, rid, ServerWriteAheadLog(rid, [])
            )
            for rid in self.ids
        }
        self.up = {rid: True for rid in self.ids}
        self.conns = []
        self.elections = {}  # candidate -> (target, offers, asked)
        self.ops = 0
        #: serial -> (origin, opid) the first time any core reported it
        self.certified = {}
        #: serial -> the epoch whose primary reported it first
        self.certified_under = {}
        #: view -> who had an install for it accepted somewhere
        self.installers = {}
        self.adopted_views = {}
        self.watermarks = {rid: (0, 0, 0) for rid in self.ids}
        self.counts = dict.fromkeys(
            ("op", "adopt", "void", "deposed", "denied"), 0
        )

    # -- helpers -------------------------------------------------------
    def lagging(self, core):
        """Commit knowledge as a frame may carry it: any older value."""
        return self.rng.randint(0, core.committed)

    def report(self, core, newly):
        """``core`` says these serials are committed: they are on a
        quorum of disks, and no serial is ever certified twice over."""
        for serial in newly:
            mine = core.log.record_at(serial)
            holders = [
                other
                for other in self.cores.values()
                if (theirs := other.log.record_at(serial)) is not None
                and identity(theirs) == identity(mine)
            ]
            assert len(holders) >= self.quorum, (serial, core.me)
            assert self.certified.setdefault(serial, identity(mine)) == identity(mine)
            self.certified_under.setdefault(serial, core.epoch)

    def depose(self, rid):
        """What the shell's cleanup does: stop shipping.  Its cancelled
        tasks never read the acks still in flight; the simulator's
        backbone delivers them anyway — so some stay, to arrive late."""
        self.counts["deposed"] += 1
        for conn in self.conns:
            if conn.p == rid:
                conn.open = False
                if self.rng.random() < 0.5:
                    conn.reply = None
        self.elections.pop(rid, None)

    def answer(self, rid, reply):
        if reply.deposed:
            self.depose(rid)
        return reply

    # -- steps ---------------------------------------------------------
    def a_primary(self):
        """Any live replica that believes it leads — a stale one does too."""
        leading = [c for c in self.cores.values() if self.up[c.me] and c.is_primary]
        return self.rng.choice(leading) if leading else None

    def client_op(self):
        core = self.a_primary()
        if core is None:
            return
        self.ops += 1
        opid = [f"c{self.ops % 3}", self.ops]
        core.log.append_record(
            {
                "serial": core.log.last_serial + 1,
                "origin": opid[0],
                "epoch": core.epoch,
                "operation": {
                    "kind": "ins",
                    "opid": opid,
                    "element": {"value": "x", "opid": opid},
                    "position": 0,
                },
                "ctx": [0, 0],
            }
        )
        self.counts["op"] += 1
        self.report(core, core.appended())

    def dial(self):
        core = self.a_primary()
        if core is None:
            return
        b = self.rng.choice([rid for rid in self.ids if rid != core.me])
        for conn in self.conns:
            if (conn.p, conn.b) == (core.me, b):
                conn.open = False  # its frame may still arrive: a zombie
                conn.reply = None
        frame = ("install", {**core.start_view(), "committed": self.lagging(core)})
        self.conns.append(Conn(core.me, b, frame))

    def ship(self):
        idle = [
            conn
            for conn in self.conns
            if conn.open and conn.frame is None and conn.reply is None
            and self.cores[conn.p].is_primary
            and conn.shipped < self.cores[conn.p].log.last_serial
        ]
        if not idle:
            return
        conn = self.rng.choice(idle)
        core = self.cores[conn.p]
        conn.frame = (
            "append",
            {
                "epoch": core.epoch,
                "committed": self.lagging(core),
                "record": dict(core.log.record_at(conn.shipped + 1)),
            },
        )

    def deliver_frame(self):
        pending = [conn for conn in self.conns if conn.frame is not None]
        if not pending:
            return
        conn = self.rng.choice(pending)
        (kind, fields), conn.frame = conn.frame, None
        if not self.up[conn.b]:
            conn.open = False
            return
        backup = self.cores[conn.b]
        # No frame a primary ever sent is out of contract, zombies
        # included: a ProtocolError here propagates and fails the example.
        if kind == "install":
            reply = self.answer(conn.b, backup.install(**fields))
            if reply.accepted:
                self.installers.setdefault(fields["view"], set()).add(conn.p)
        else:
            reply = self.answer(conn.b, backup.append(**fields))
        if conn.open:
            conn.reply = reply

    def deliver_reply(self):
        pending = [c for c in self.conns if c.reply is not None and self.up[c.p]]
        if not pending:
            return
        conn = self.rng.choice(pending)
        reply, conn.reply = conn.reply, None
        core = self.cores[conn.p]
        if reply.accepted:
            self.report(core, core.record_ack(conn.b, **reply.fields))
            conn.shipped = reply.fields["serial"]
        elif conn.open:
            self.counts["denied"] += 1
            core.stand_down(reply.fields["view"])
            self.depose(conn.p)

    def reset(self):
        live = [conn for conn in self.conns if conn.open or conn.frame is not None]
        if not live:
            return
        conn = self.rng.choice(live)
        conn.open, conn.reply = False, None
        if self.rng.random() < 0.5:
            conn.frame = None  # else the frame was already in the socket

    def crash(self):
        rid = self.rng.choice(self.ids)
        if not self.up[rid] or sum(self.up.values()) <= 1:
            return
        self.up[rid] = False
        self.elections.pop(rid, None)
        for conn in self.conns:
            if rid in (conn.p, conn.b):
                conn.open, conn.reply = False, None
                if conn.b == rid:
                    conn.frame = None

    def restart(self):
        down = [rid for rid in self.ids if not self.up[rid]]
        if down:
            self.up[self.rng.choice(down)] = True  # the disk survived

    def stand(self):
        idle = [
            rid
            for rid in self.ids
            if self.up[rid] and rid not in self.elections
            and not self.cores[rid].is_primary
        ]
        if idle:
            rid = self.rng.choice(idle)
            self.elections[rid] = (self.cores[rid].candidacy(), [], set())

    def seek(self):
        if not self.elections:
            return
        rid = self.rng.choice(sorted(self.elections))
        target, offers, asked = self.elections[rid]
        unasked = [r for r in self.ids if r != rid and r not in asked and self.up[r]]
        if not unasked:
            return
        peer = self.rng.choice(unasked)
        asked.add(peer)
        reply = self.answer(peer, self.cores[peer].seek(target))
        if self.rng.random() < 0.2:
            return  # the reply was lost
        if reply.accepted:
            offers.append(reply.fields)
        else:
            del self.elections[rid]  # denied: the shell gives up

    def finish(self):
        if not self.elections:
            return
        rid = self.rng.choice(sorted(self.elections))
        target, offers, _asked = self.elections.pop(rid)
        core = self.cores[rid]
        # A ProtocolError here is the intersection check firing on a
        # reachable state: it propagates and fails the example.
        change = core.adopt(target, offers)
        if change is None:
            self.counts["void"] += 1
            return
        self.counts["adopt"] += 1
        assert self.adopted_views.setdefault(target, rid) == rid
        # Whatever an earlier view certified is in the log this one
        # starts from.  (A slow candidate may still take a view that a
        # higher one has overtaken: it leads nobody, and is denied.)
        for serial, epoch in self.certified_under.items():
            if epoch < target:
                held = core.log.record_at(serial)
                assert held and identity(held) == self.certified[serial], serial
        self.report(core, core.appended())

    STEPS = (
        (client_op, 6), (dial, 4), (ship, 8), (deliver_frame, 10),
        (deliver_reply, 10), (reset, 1), (crash, 1), (restart, 2),
        (stand, 1), (seek, 4), (finish, 2),
    )

    def step(self):
        steps, weights = zip(*self.STEPS)
        self.rng.choices(steps, weights)[0](self)
        self.check()

    # -- invariants ----------------------------------------------------
    def check(self):
        cores = list(self.cores.values())
        for core in cores:
            assert core.epoch <= core.view <= core.promised
            now = (core.view, core.promised, core.committed)
            assert all(n >= w for n, w in zip(now, self.watermarks[core.me])), core.me
            self.watermarks[core.me] = now
        for view, who in self.installers.items():
            assert who == {primary_for(view, self.ids)}, (view, who)
        leaders = {}
        for core in cores:
            if core.is_primary:
                assert leaders.setdefault(core.view, core.me) == core.me
        # Whatever was certified stays on a quorum of disks, unchanged.
        for serial, certified in self.certified.items():
            holders = sum(
                (record := core.log.record_at(serial)) is not None
                and identity(record) == certified
                for core in cores
            )
            assert holders >= self.quorum, (serial, holders)
        # Any two logs agree below the lower commit floor.
        for index, a in enumerate(cores):
            for b in cores[index + 1:]:
                upto = min(
                    a.committed, b.committed, a.log.last_serial, b.log.last_serial
                )
                for serial in range(1, upto + 1):
                    assert identity(a.log.record_at(serial)) == identity(
                        b.log.record_at(serial)
                    ), (a.me, b.me, serial)
        # Within one epoch a backup's log is a prefix of its leader's.
        for core in cores:
            leader = self.cores[primary_for(core.epoch, self.ids)]
            if leader.epoch == core.epoch:
                held = len(core.log.records)
                assert core.log.records == leader.log.records[:held], core.me


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=1_000_000),
    replicas=st.sampled_from([3, 3, 5]),
)
def test_every_interleaving_keeps_the_replication_invariants(seed, replicas):
    group = Group(seed, replicas)
    for _ in range(400):
        group.step()


def test_the_interleavings_reach_what_they_are_meant_to():
    """The suite is only worth its seconds if its walks actually commit
    operations across view changes, depose primaries by every route and
    void candidacies — pin that on a fixed batch of seeds."""
    totals = {}
    committed = 0
    for seed in range(40):
        group = Group(seed, 3)
        for _ in range(400):
            group.step()
        for name, count in group.counts.items():
            totals[name] = totals.get(name, 0) + count
        committed += len(group.certified)
    assert committed > 400, committed
    assert totals["adopt"] > 60 and totals["void"] > 60, totals
    assert totals["deposed"] > 60 and totals["denied"] > 30, totals
