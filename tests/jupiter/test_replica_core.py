"""The replica core on its own: no sockets, no event loop, no simulator.

:class:`~repro.jupiter.replication.Replica` owns every replication
decision; :class:`~repro.net.server.NetServer` and the fault-injected
simulator only drive it, with the same calls.  These tests pin its
rules: a frame is validated before anything changes, the promise only
ratchets, a replica refuses an install for a view it leads itself, and
whatever makes a sitting primary stop leading says so.
"""

import pytest

from repro.errors import ProtocolError
from repro.jupiter.persistence import ServerWriteAheadLog
from repro.jupiter.replication import Replica

IDS = ["s0", "s1", "s2"]


def record(serial, epoch=0, origin="c1"):
    """A shipped record as a backup sees it: checked, stored, never decoded."""
    opid = [origin, serial]
    return {
        "serial": serial,
        "origin": origin,
        "epoch": epoch,
        "operation": {
            "kind": "ins",
            "opid": opid,
            "element": {"value": "x", "opid": opid},
            "position": 0,
        },
        "ctx": [0, 0],
    }


def replica(me, records=0):
    core = Replica(IDS, me, ServerWriteAheadLog(me, [], snapshot_every=1000))
    for serial in range(1, records + 1):
        core.log.append_record(record(serial))
    return core


def state(core):
    return (
        core.view,
        core.epoch,
        core.promised,
        core.committed,
        core.log.last_serial,
        [dict(r) for r in core.log.records],
        list(core.log.clients),
        dict(core.acked),
    )


def offers(target, *cores):
    return [core.seek(target).fields for core in cores]


def elected(me="s1", records=3):
    """``me`` leading view 1 over a log every replica holds."""
    cores = {rid: replica(rid, records) for rid in IDS}
    leader = cores[me]
    target = leader.candidacy()
    others = [core for rid, core in cores.items() if rid != me]
    assert leader.adopt(target, offers(target, *others)) is not None
    return leader, cores


class TestRoster:
    def test_duplicate_ids_and_strangers_are_refused(self):
        log = ServerWriteAheadLog("s0", [])
        with pytest.raises(ProtocolError):
            Replica(["s0", "s0", "s1"], "s0", log)
        with pytest.raises(ProtocolError):
            Replica(IDS, "s9", log)

    def test_view_zero_has_its_primary_without_an_election(self):
        assert replica("s0").is_primary
        assert not replica("s1").is_primary


class TestCommitFloor:
    def test_own_append_counts_once_a_backup_ack_makes_the_quorum(self):
        primary = replica("s0", records=2)
        assert list(primary.appended()) == []
        assert list(primary.record_ack("s1", 1, 0)) == [1]
        assert list(primary.record_ack("s2", 2, 0)) == [2]
        assert list(primary.record_ack("s1", 2, 0)) == []
        assert primary.committed == 2

    def test_a_roster_of_one_commits_what_it_appends(self):
        alone = Replica(["s"], "s", ServerWriteAheadLog("s", []))
        alone.log.append_record(record(1))
        assert list(alone.appended()) == [1]

    def test_stale_and_foreign_acks_move_nothing(self):
        primary = replica("s0", records=1)
        assert list(primary.record_ack("s1", 1, 7)) == []
        assert list(replica("s1", records=1).record_ack("s2", 1, 0)) == []
        assert primary.committed == 0 and primary.stale_rejected == 1
        with pytest.raises(ProtocolError):
            primary.record_ack("s9", 1, 0)
        with pytest.raises(ProtocolError):
            primary.record_ack("s1", 5, 0)  # past the log head
        assert primary.acked == {"s0": 0, "s1": 0, "s2": 0}


class TestBackupSide:
    def test_append_is_dense_idempotent_and_learns(self):
        backup = replica("s1")
        reply = backup.append(0, 0, record(1, origin="c7"))
        assert (reply.kind, reply.fields) == ("repl_ack", {"serial": 1, "epoch": 0})
        assert backup.log.clients == ["c7"]  # origin learnt from the record
        again = backup.append(0, 1, record(1, origin="c7"))
        assert again.fields["serial"] == 1 and backup.log.last_serial == 1
        assert backup.committed == 1  # the frame's commit knowledge
        backup.append(0, 0, record(2))
        assert backup.committed == 1  # never regresses

    def test_stale_epochs_and_broken_promises_are_denied(self):
        backup = replica("s2")
        assert backup.append(3, 0, record(1)).kind == "repl_deny"
        backup.seek(1)
        denied = backup.append(0, 0, record(1))
        assert (denied.kind, denied.fields) == ("repl_deny", {"view": 1})
        assert backup.log.last_serial == 0 and backup.stale_rejected == 2

    def test_install_replaces_the_log_and_keeps_its_name(self):
        leader, cores = elected("s1", records=3)
        backup = replica("s2")
        reply = backup.install(**leader.start_view())
        assert (reply.kind, reply.fields) == ("repl_ack", {"serial": 3, "epoch": 1})
        assert (backup.view, backup.epoch, backup.promised) == (1, 1, 1)
        assert backup.log.records == leader.log.records
        assert backup.log.replica_id == "s2"
        stale = backup.install(0, 0, 0, cores["s0"].log.to_obj())
        assert stale.kind == "repl_deny" and backup.view == 1


class TestStandingDown:
    """Bug (a): the deployed primary learnt of a higher view by install
    and kept serving; the view-1 primary accepted an install for view 1."""

    def test_an_install_for_a_view_i_lead_is_refused(self):
        leader, cores = elected("s1")
        before = state(leader)
        forged = leader.install(1, 1, 3, cores["s0"].log.to_obj())
        assert forged.kind == "repl_deny" and not forged.deposed
        assert state(leader) == before and leader.is_primary
        # ... and so is a record shipped under the epoch it leads.
        assert leader.append(1, 0, record(4, epoch=1)).kind == "repl_deny"
        assert state(leader) == before

    def test_a_higher_view_installed_on_a_sitting_primary_says_so(self):
        leader, _cores = elected("s1")
        old = replica("s0", records=3)
        assert old.is_primary
        reply = old.install(**leader.start_view())
        assert reply.accepted and reply.deposed
        assert not old.is_primary
        # Only the install that deposes reports it.
        assert not old.install(**leader.start_view()).deposed

    def test_a_promise_deposes_too(self):
        # The offer is this primary's vote: a record it committed after
        # offering would be missing from the log the candidate adopts.
        old = replica("s0", records=1)
        offer = old.seek(1)
        assert offer.kind == "repl_offer" and offer.deposed
        assert not old.is_primary
        assert list(old.record_ack("s1", 1, 0)) == []

    def test_a_deny_moves_the_view_past_the_one_it_led(self):
        old = replica("s0")
        old.stand_down(1)
        assert (old.view, old.epoch, old.promised) == (1, 0, 1)
        old.stand_down(0)  # a deny always means "not you any more"
        assert (old.view, old.promised) == (2, 2)
        assert not old.is_primary

    @pytest.mark.parametrize("route", ["install", "promise"])
    def test_a_deposed_primary_certifies_nothing_it_appends(self, route):
        # A record a shell wrote after standing down sits on one disk;
        # counting it would move a floor no other replica holds.
        leader, _cores = elected("s1")
        old = replica("s0", records=3)
        if route == "install":
            old.install(**leader.start_view())
        else:
            old.seek(1)
        floor, acked = old.committed, dict(old.acked)
        old.log.append_record(record(4, epoch=old.epoch))
        assert list(old.appended()) == []
        assert (old.committed, old.acked) == (floor, acked)


class TestValidateBeforeMutate:
    """Bugs (b) and (c): a malformed frame is refused typed, with the
    replica's state and log untouched."""

    def good_log(self):
        return replica("s0", records=2).log.to_obj()

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda log: {**log, "version": 1},
            lambda log: {k: v for k, v in log.items() if k != "records"},
            lambda log: {**log, "next_serial": "three"},
            lambda log: None,
            lambda log: "a log",
        ],
    )
    def test_an_undecodable_install_changes_nothing(self, mangle):
        backup = replica("s1", records=1)
        before = state(backup)
        with pytest.raises(ProtocolError):
            backup.install(99, 99, 0, mangle(self.good_log()))
        assert state(backup) == before

    @pytest.mark.parametrize(
        "view, epoch, committed",
        [("1", 1, 0), (1, None, 0), (1, 1, 1.5), (True, 1, 0), (2, 1, 0)],
    )
    def test_install_fields_are_integers_and_epoch_is_the_view(
        self, view, epoch, committed
    ):
        backup = replica("s1")
        before = state(backup)
        with pytest.raises(ProtocolError):
            backup.install(view, epoch, committed, self.good_log())
        assert state(backup) == before

    @pytest.mark.parametrize(
        "frame",
        [
            (0, 0, None),  # no record
            (0, 0, {"serial": 2, "origin": "c1"}),  # no operation
            (0, 0, record("2")),  # non-integer serial
            (0, 0, record(4)),  # a serial gap
            (0, 0, {**record(2), "epoch": "0"}),
            ("0", 0, record(2)),
            (0, None, record(2)),
        ],
    )
    def test_a_malformed_append_changes_nothing(self, frame):
        backup = replica("s1", records=1)
        before = state(backup)
        with pytest.raises(ProtocolError):
            backup.append(*frame)
        assert state(backup) == before

    def test_a_record_older_than_the_log_is_refused(self):
        backup = replica("s1")
        backup.install(2, 2, 0, self.good_log())
        backup.log.append_record(record(3, epoch=2))
        before = state(backup)
        with pytest.raises(ProtocolError):
            backup.append(2, 0, record(4, epoch=1))
        assert state(backup) == before

    def test_seek_and_stand_down_want_integers(self):
        backup = replica("s1")
        before = state(backup)
        for call in (backup.seek, backup.stand_down):
            with pytest.raises(ProtocolError):
                call("1")
        assert state(backup) == before

    def test_a_forged_offer_voids_nothing_but_the_call(self):
        candidate = replica("s1", records=2)
        target = candidate.candidacy()
        good = offers(target, replica("s2", records=2))
        before = state(candidate)
        for forged in (
            [{**good[0], "log": {"version": 0}, "last_serial": 9}],
            [{**good[0], "last_serial": "2"}],
            [{**good[0], "replica": "s9"}],
            [{**good[0], "replica": ["s2"]}],
            [{**good[0], "replica": "s1"}],
            [{**good[0], "view": target + 3}],
        ):
            with pytest.raises(ProtocolError):
                candidate.adopt(target, forged)
            assert state(candidate) == before
        assert candidate.adopt(target, good) is not None


class TestElection:
    def test_candidacy_is_the_next_view_i_lead_and_a_promise(self):
        core = replica("s2")
        assert core.next_led == 2
        assert core.candidacy() == 2 and core.promised == 2
        # A failed candidacy is not retried under the same number.
        assert core.candidacy() == 5
        assert core.seek(4).kind == "repl_deny"

    def test_adoption_takes_the_best_log_and_restamps_the_suffix(self):
        candidate = replica("s1", records=2)
        longer = replica("s2", records=4)
        longer.learn_commit(1)
        target = candidate.candidacy()
        change = candidate.adopt(target, offers(target, longer))
        assert (change.view, change.primary, change.adopted_from) == (1, "s1", "s2")
        assert change.adopted_last == 4 and candidate.committed == 1
        assert [r["serial"] for r in change.reproposed] == [2, 3, 4]
        assert [r["epoch"] for r in candidate.log.records] == [0, 1, 1, 1]
        assert candidate.log.last_epoch == 1 and candidate.log.replica_id == "s1"
        # The offerer's own records were not re-stamped through the wire.
        assert [r["epoch"] for r in longer.log.records] == [0, 0, 0, 0]
        assert candidate.acked == {"s0": 1, "s1": 4, "s2": 1}
        assert candidate.is_primary and candidate.view_changes == 1

    def test_no_quorum_no_view(self):
        candidate = replica("s1", records=1)
        target = candidate.candidacy()
        before = state(candidate)
        assert candidate.adopt(target, []) is None
        assert state(candidate) == before and not candidate.is_primary

    def test_an_adopted_log_below_the_floor_is_a_violated_intersection(self):
        candidate = replica("s1", records=1)
        knows = replica("s2", records=1)
        knows.learn_commit(3)
        target = candidate.candidacy()
        before = state(candidate)
        with pytest.raises(ProtocolError, match="quorum intersection"):
            candidate.adopt(target, offers(target, knows))
        assert state(candidate) == before

    def test_the_commit_reaching_the_adopted_head_is_said_once(self):
        leader, cores = elected("s1", records=3)
        assert not leader.adoption_certified()
        ack = cores["s2"].install(**leader.start_view()).fields
        assert list(leader.record_ack("s2", ack["serial"], ack["epoch"])) == [1, 2, 3]
        assert leader.adoption_certified()
        assert not leader.adoption_certified()


class TestThePromiseOnlyRatchets:
    """``_run_election`` never promised its own candidacy and ended with
    ``promised = target`` — lowering a promise made while it waited."""

    def test_a_candidacy_overtaken_by_a_higher_promise_is_void(self):
        candidate = replica("s0", records=2)
        assert candidate.candidacy() == 3
        gathered = offers(3, replica("s1", records=2), replica("s2", records=2))
        assert candidate.seek(5).kind == "repl_offer"  # promised while waiting
        before = state(candidate)
        assert candidate.adopt(3, gathered) is None
        assert state(candidate) == before and candidate.promised == 5

    def test_an_installed_view_voids_a_lower_candidacy(self):
        candidate = replica("s2", records=1)
        target = candidate.candidacy()
        gathered = offers(target, replica("s0", records=1))
        leader, _cores = elected("s0", records=1)  # view 3 got there first
        assert candidate.install(**leader.start_view()).accepted
        assert candidate.adopt(target, gathered) is None
        assert candidate.view == 3

    def test_invariants_hold_after_every_call(self):
        core = replica("s1", records=2)
        other = replica("s2", records=2)
        leader, _cores = elected("s0", records=2)
        steps = [
            lambda: core.seek(2),
            lambda: core.seek(1),
            lambda: core.candidacy(),
            lambda: core.adopt(4, offers(4, other)),
            lambda: core.stand_down(2),
            lambda: core.install(**leader.start_view()),
            lambda: core.seek(9),
            lambda: core.stand_down(6),
            lambda: core.append(core.epoch, 1, record(3, epoch=core.epoch)),
        ]
        for step in steps:
            seen = (core.view, core.promised, core.committed)
            try:
                step()
            except ProtocolError:
                pass
            assert core.epoch <= core.view <= core.promised
            after = (core.view, core.promised, core.committed)
            assert all(now >= was for now, was in zip(after, seen))
