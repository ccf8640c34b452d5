"""Tests for leader election."""

import pytest

from repro.coord import CoordinationKernel, LeaderElection


@pytest.fixture
def zk():
    return CoordinationKernel()


class TestLeaderElection:
    def test_first_candidate_becomes_leader(self, zk):
        session = zk.session()
        election = LeaderElection(zk, session, candidate_id="m1")
        elected = []
        election.on_elected(lambda: elected.append("m1"))
        election.join()
        assert election.is_leader
        assert elected == ["m1"]
        assert election.leader_id() == "m1"

    def test_second_candidate_waits(self, zk):
        s1, s2 = zk.session(), zk.session()
        primary = LeaderElection(zk, s1, candidate_id="m1")
        standby = LeaderElection(zk, s2, candidate_id="m2")
        primary.join()
        standby.join()
        assert primary.is_leader
        assert not standby.is_leader
        assert standby.leader_id() == "m1"

    def test_takeover_on_leader_session_close(self, zk):
        s1, s2 = zk.session(), zk.session()
        primary = LeaderElection(zk, s1, candidate_id="m1")
        standby = LeaderElection(zk, s2, candidate_id="m2")
        takeovers = []
        primary.join()
        standby.join()
        standby.on_elected(lambda: takeovers.append("m2"))
        s1.close()  # crash of the primary manager
        assert standby.is_leader
        assert takeovers == ["m2"]
        assert standby.leader_id() == "m2"

    def test_no_herd_intermediate_candidate_takes_over_first(self, zk):
        sessions = [zk.session() for _ in range(3)]
        elections = [
            LeaderElection(zk, s, candidate_id=f"m{i}")
            for i, s in enumerate(sessions)
        ]
        for election in elections:
            election.join()
        sessions[0].close()
        assert elections[1].is_leader
        assert not elections[2].is_leader
        sessions[1].close()
        assert elections[2].is_leader

    def test_double_join_rejected(self, zk):
        election = LeaderElection(zk, zk.session(), candidate_id="m")
        election.join()
        with pytest.raises(RuntimeError):
            election.join()

    def test_on_elected_after_the_fact_fires_immediately(self, zk):
        election = LeaderElection(zk, zk.session())
        election.join()
        fired = []
        election.on_elected(lambda: fired.append(True))
        assert fired == [True]

