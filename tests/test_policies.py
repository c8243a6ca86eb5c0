import pytest
from hypothesis import given
from hypothesis import strategies as st

from provsim.errors import InfeasibleScenarioError, KernelError, ScenarioError
from provsim.policies import (
    DCS,
    FB,
    PolicyParams,
    ec2_job_lifecycle,
    fb_force_release,
    fb_lease_tick,
    fb_ws_demand,
    first_fit_schedule,
    flb_lease_tick,
    flb_manage_tick,
    flb_ws_demand,
    parse_params,
    regime_class,
    whole,
    ws_instance_controller,
)
from provsim.state import (
    ACTOR_PBJ,
    KIND_LEASE_TICK,
    REGIMES,
    ClusterState,
    JobQueue,
)
from provsim.trace import Job

from oracles import first_fit_reference, greedy_kill_reference, queue_order


class TestPolicyParams:
    def test_compact_notation(self):
        params = parse_params("B25/U1.2/V0.2/G0.5/L60")
        assert params == PolicyParams(B=25, U=1.2, V=0.2, G=0.5, L=3600)

    def test_compact_defaults(self):
        assert parse_params("B51").B == 51

    def test_empty_token_skipped(self):
        assert parse_params("B25//L60") == parse_params("B25/L60")

    def test_u_of_one_accepted(self):
        assert PolicyParams(U=1.0, V=0.2).validate().U == 1.0

    def test_bad_token(self):
        with pytest.raises(ScenarioError, match="X9"):
            parse_params("B25/X9")

    @pytest.mark.parametrize("compact", ["B4.7", "L1.01", "L0.01"])
    def test_fraction_not_truncated(self, compact):
        with pytest.raises(ScenarioError, match=f"parameter {compact[0]}"):
            parse_params(compact)

    def test_whole_numbers_below_two_to_the_63(self):
        assert whole(2**63 - 1) == 2**63 - 1 and whole(-(2**63) + 1) == -(2**63) + 1
        for value in (2**63, -(2**63), 10**400, "1e19", 1e307):
            with pytest.raises(ValueError, match="2\\*\\*63"):
                whole(value)

    def test_integer_strings_read_exactly(self):
        assert whole("9007199254740993") == 2**53 + 1 and whole("-9007199254740993") == -(2**53) - 1
        assert parse_params("B9223372036854775807").B == 2**63 - 1
        assert whole("4.0") == 4 and whole("1e3") == 1000
        with pytest.raises(ScenarioError, match="not below 2\\*\\*63"):
            parse_params("B9223372036854775808")

    def test_lease_minutes_in_whole_seconds(self):
        assert parse_params("L1.5").L == 90
        assert parse_params("B4.0/L0.1").B == 4 and parse_params("L0.1").L == 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(G=0.0),
            dict(G=1.0),
            dict(V=1.5, U=1.2),
            dict(U=0.0),
            dict(L=0),
            dict(B=-1),
            dict(U=0.5),
            dict(U=0.999),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ScenarioError):
            PolicyParams(**{**dict(B=25, U=1.2, V=0.2, G=0.5, L=3600), **kwargs}).validate()


def jobs_of_sizes(sizes, submit=0):
    return [Job(i + 1, submit, 100, s) for i, s in enumerate(sizes)]


class TestFirstFit:
    def test_scan_restarts_from_front(self):
        queue = JobQueue(jobs_of_sizes([5, 2, 3]))
        started = first_fit_schedule(queue, 4)
        assert [job.size for job in started] == [2]

    def test_all_fit(self):
        queue = JobQueue(jobs_of_sizes([1, 1, 1]))
        assert len(first_fit_schedule(queue, 3)) == 3

    def test_no_idle_starts_nothing(self):
        assert first_fit_schedule(JobQueue(jobs_of_sizes([1])), 0) == ()

    def test_front_job_preferred_after_each_start(self):
        started = first_fit_schedule(JobQueue(jobs_of_sizes([4, 3, 2])), 5)
        assert [job.size for job in started] == [4]
        started = first_fit_schedule(JobQueue(jobs_of_sizes([4, 3, 2])), 7)
        assert [job.size for job in started] == [4, 3]


class TestJobQueueProperty:
    """JobQueue against a plain list driven through the same operations. A
    fit given the whole queued demand empties the queue, so the lone-job slot
    is filled, moved by an append or a requeue, started and passed over often."""

    @given(st.lists(st.one_of(
        st.tuples(st.just("append"), st.integers(1, 9)),
        st.tuples(st.just("requeue"), st.lists(st.integers(1, 9), max_size=4)),
        st.tuples(st.just("fit"), st.integers(0, 20)),
        st.just(("fit", None)),  # idle nodes equal to the queued demand
    ), max_size=60))
    def test_same_as_list(self, ops):
        queue, reference = JobQueue(), []
        next_id = 1
        for op, arg in ops:
            if op == "append":
                job = Job(next_id, next_id, 10, arg)
                next_id += 1
                queue.append(job)
                reference.append(job)
            elif op == "requeue":
                jobs = [Job(next_id + i, next_id + i, 10, size) for i, size in enumerate(arg)]
                next_id += len(jobs)
                queue.push_front(jobs)
                reference[:0] = jobs
            else:
                idle = queue.demand if arg is None else arg
                expected = first_fit_reference(reference, idle)
                for job in expected:
                    reference.remove(job)
                assert list(first_fit_schedule(queue, idle)) == expected
            assert queue_order(queue) == reference
            assert len(queue) == len(reference)
            assert queue.demand == sum(job.size for job in reference)
            assert queue.biggest == max((job.size for job in reference), default=0)
        assert list(queue.first_fit(queue.demand)) == reference
        assert len(queue) == queue.demand == queue.biggest == 0 and queue_order(queue) == []


class TestLoneQueuedJob:
    """A job appended to an empty queue is held outside the size buckets."""

    def test_second_append_keeps_the_order(self):
        first, second = Job(1, 0, 100, 5), Job(2, 1, 100, 3)
        queue = JobQueue()
        queue.append(first)
        queue.append(second)
        assert queue_order(queue) == [first, second]
        assert list(queue.first_fit(8)) == [first, second]

    def test_requeue_onto_a_lone_job_puts_the_victims_first(self):
        lone, victims = Job(1, 5, 100, 2), jobs_of_sizes([4, 1], submit=0)
        queue = JobQueue()
        queue.append(lone)
        queue.push_front(victims)
        assert queue_order(queue) == [*victims, lone]
        assert (len(queue), queue.demand, queue.biggest) == (3, 7, 4)
        assert list(queue.first_fit(7)) == [*victims, lone]

    def test_lone_job_that_does_not_fit_stays_queued(self):
        lone = Job(1, 0, 100, 5)
        queue = JobQueue()
        queue.append(lone)
        assert queue.first_fit(4) == ()
        assert (len(queue), queue.demand, queue.biggest) == (1, 5, 5)
        assert queue_order(queue) == [lone]
        assert list(queue.first_fit(5)) == [lone]
        assert (len(queue), queue.demand, queue.biggest, queue_order(queue)) == (0, 0, 0, [])

    def test_queue_built_from_one_job_holds_it(self):
        job = Job(1, 0, 100, 3)
        queue = JobQueue([job])
        assert (len(queue), queue.demand, queue.biggest) == (1, 3, 3)
        assert queue_order(queue) == [job]
        assert list(queue.first_fit(3)) == [job] and len(queue) == 0


def fb_state(*, config, ws=0, free=0, idle=0, running=(), queue=(), clock=0, pbj_bound=None):
    """FB-regime state with running jobs given as (id, size, start_time) tuples."""
    state = ClusterState(
        capacity=config,
        pbj_bound=pbj_bound if pbj_bound is not None else config,
        ws_held=ws,
        clock=clock,
    )
    for job_id, size, start in running:
        state.running[job_id] = (Job(job_id, 0, 1000, size), start, 1)
    state.queue = JobQueue(queue)
    state.running_alloc = sum(size for _, size, _ in running)
    state.pbj_owned = idle + state.running_alloc
    assert state.pbj_owned + ws + free == config
    return state


class TestFbForceRelease:
    def test_idle_surrendered_first_no_kills(self):
        state = fb_state(config=10, idle=5, free=0, ws=5)
        kills = fb_force_release(state, 3)
        assert kills == []
        assert state.pbj_idle == 2
        assert state.free == 3

    def test_min_size_latest_start_victim(self):
        running = [(1, 4, 10), (2, 2, 20), (3, 2, 30)]
        state = fb_state(config=8, running=running, ws=0, free=0)
        kills = fb_force_release(state, 2)
        assert kills == [3]
        # All of job 3's nodes, its size in `running`, are released.
        assert state.running_alloc == sum(size for _, size, _ in running) - running[2][1]
        assert state.pbj_owned == 6
        assert queue_order(state.queue)[0].id == 3  # victim requeued at the head
        assert state.attempts == {3: 1}  # kept until the victim restarts

    def test_exact_tie_kills_the_job_started_second(self):
        # Equal size and equal start time: the job started last is the victim,
        # whichever of the two has the lower id.
        for first, second in ((1, 2), (2, 1)):
            state = fb_state(config=4, running=[(first, 2, 10), (second, 2, 10)])
            kills = fb_force_release(state, 1)
            assert kills == [second]
            assert list(state.running) == [first]

    def test_overshoot_stays_as_idle(self):
        state = fb_state(config=4, running=[(1, 4, 10)], ws=0, free=0)
        kills = fb_force_release(state, 3)
        assert kills == [1]
        assert state.free == 3
        assert state.pbj_idle == 1
        assert state.pbj_owned == 1

    def test_victims_requeued_in_arrival_order(self):
        state = fb_state(
            config=6,
            running=[(5, 2, 100), (9, 2, 100), (2, 2, 50)],
            queue=[Job(7, 40, 10, 1)],
        )
        # Make arrival order distinguishable: ids 2 < 5 < 9 submitted in order.
        for job_id, submit in ((5, 20), (9, 30), (2, 10)):
            job, start, _ = state.running[job_id]
            state.running[job_id] = (Job(job_id, submit, 1000, job.size), start, 1)
        fb_force_release(state, 6)
        assert [j.id for j in queue_order(state.queue)] == [2, 5, 9, 7]

    def test_same_submit_victims_requeued_in_id_order(self):
        # Job 4 started last and is killed first; both were submitted at 5, so
        # the requeue puts the lower id first, and it is the first to restart.
        state = fb_state(config=4, running=[(3, 2, 10), (4, 2, 20)])
        for job_id in (3, 4):
            _, start, _ = state.running[job_id]
            state.running[job_id] = (Job(job_id, 5, 1000, 2), start, 1)
        assert fb_force_release(state, 4) == [4, 3]
        assert [j.id for j in queue_order(state.queue)] == [3, 4]
        assert [j.id for j in first_fit_schedule(state.queue, 2)] == [3]

    def test_nonpositive_need_is_kernel_error(self):
        state = fb_state(config=4, idle=2, ws=0, free=2)
        with pytest.raises(KernelError, match="positive amount"):
            fb_force_release(state, 0)

    def test_needed_beyond_holdings_is_kernel_error(self):
        state = fb_state(config=4, idle=2, ws=0, free=2)
        with pytest.raises(KernelError):
            fb_force_release(state, 3)

    def test_matches_greedy_reference(self):
        running = [(1, 4, 10), (2, 2, 20), (3, 2, 30), (4, 6, 5)]
        state = fb_state(config=14, running=running, ws=0, free=0)
        kills = fb_force_release(state, 5)
        expected, released = greedy_kill_reference(
            [(jid, size, start, i + 1) for i, (jid, size, start) in enumerate(running)], 5
        )
        assert kills == expected
        sizes = {jid: size for jid, size, _ in running}
        assert sum(sizes[jid] for jid in kills) == released >= 5


class TestFbWsDemand:
    def test_demand_drop_releases_to_free_set(self):
        state = fb_state(config=20, ws=10, idle=10)
        fb_ws_demand(state, 4)
        assert state.ws_held == 4
        assert state.free == 6
        assert state.adjustments == [("ws_manager", -6)]

    def test_rise_within_free_capacity_no_kills(self):
        state = fb_state(config=20, ws=4, idle=6, free=10)
        kills = fb_ws_demand(state, 12)
        assert kills == []
        assert state.ws_held == 12 and state.free == 2
        assert state.pbj_idle == 6  # batch side untouched

    def test_full_takeover_kills_everything(self):
        # Cluster of 128 fully busy with batch jobs; demand 0 -> 128 drives
        # batch holdings to zero through kills.
        running = [(i, 16, 10 * i) for i in range(1, 9)]
        state = fb_state(config=128, running=running, ws=0, free=0)
        kills = fb_ws_demand(state, 128)
        assert state.ws_held == 128
        assert state.pbj_owned == 0
        sizes = {jid: size for jid, size, _ in running}
        assert sum(sizes[jid] for jid in kills) == 128
        expected, _ = greedy_kill_reference(
            [(jid, size, start, i + 1) for i, (jid, size, start) in enumerate(running)], 128
        )
        assert kills == expected

    def test_demand_above_config_infeasible(self):
        # The demand trace's peak is the highest demand FB ever sees.
        with pytest.raises(InfeasibleScenarioError):
            FB(PolicyParams(), prc_pbj=16, prc_ws=17, config_size=16)


class TestFbLeaseTick:
    def test_noop_logs_nothing(self):
        state = fb_state(config=10, idle=10)
        fb_lease_tick(state)
        assert state.adjustments == []

    def test_free_nodes_move_to_batch(self):
        state = fb_state(config=10, idle=3, free=7, pbj_bound=10)
        fb_lease_tick(state)
        assert state.pbj_owned == 10 and state.pbj_idle == 10
        assert state.adjustments == [("provision_service", 7)]

    def test_grant_capped_at_agreement_bound(self):
        state = fb_state(config=20, idle=4, free=16, pbj_bound=10)
        fb_lease_tick(state)
        assert state.pbj_owned == 10
        assert state.free == 10


def flb_state(*, B, owned, idle, floor=0, ws=0, queue=(), pbj_pool=None, ws_pool=None):
    state = ClusterState(
        pool_size=B,
        pbj_floor=floor,
        pbj_owned=owned,
        running_alloc=owned - idle,
        ws_held=ws,
    )
    state.pbj_pool = min(owned, B) if pbj_pool is None else pbj_pool
    state.ws_pool = ws_pool if ws_pool is not None else max(0, min(ws, B - state.pbj_pool))
    state.queue = JobQueue(queue)
    return state


class TestFlbManageTick:
    def test_dr1_when_ratio_exceeds_requesting_threshold(self):
        state = flb_state(B=25, owned=100, idle=0, queue=jobs_of_sizes([100, 50]))
        flb_manage_tick(state, PolicyParams(U=1.2, V=0.2, G=0.5))
        assert state.pbj_owned == 150
        assert state.adjustments == [("pbj_manager", 50)]

    def test_dr2_for_biggest_job(self):
        state = flb_state(B=25, owned=100, idle=40, queue=jobs_of_sizes([120]))
        flb_manage_tick(state, PolicyParams(U=1.2, V=0.2, G=0.5))
        assert state.adjustments == [("pbj_manager", 80)]
        assert state.pbj_idle == 120

    def test_release_elastic_share_of_idle(self):
        state = flb_state(B=25, owned=100, idle=60, floor=12)
        flb_manage_tick(state, PolicyParams(U=1.2, V=0.2, G=0.5))
        assert state.adjustments == [("pbj_manager", -30)]
        assert state.pbj_owned == 70

    def test_release_never_breaks_lower_bound(self):
        state = flb_state(B=25, owned=14, idle=14, floor=12)
        flb_manage_tick(state, PolicyParams(U=1.2, V=0.2, G=0.5))
        assert state.pbj_owned == 12  # release capped at owned - floor

    def test_empty_queue_ratio_is_zero(self):
        state = flb_state(B=25, owned=0, idle=0, floor=0)
        flb_manage_tick(state, PolicyParams(U=1.2, V=0.2, G=0.5))
        assert state.adjustments == []

    def test_zero_owned_with_queue_requests_dr1(self):
        state = flb_state(B=25, owned=0, idle=0, floor=0, queue=jobs_of_sizes([5]))
        flb_manage_tick(state, PolicyParams(U=1.2, V=0.2, G=0.5))
        assert state.adjustments == [("pbj_manager", 5)]

    def test_no_release_when_ratio_equals_release_threshold(self):
        # R = 2 / 10 is exactly V: release only when R < V.
        state = flb_state(B=25, owned=10, idle=8, queue=jobs_of_sizes([2]))
        flb_manage_tick(state, PolicyParams(U=1.2, V=0.2, G=0.5))
        assert state.adjustments == []
        assert state.pbj_owned == 10

    def test_dead_band_between_thresholds(self):
        state = flb_state(B=25, owned=100, idle=50, queue=jobs_of_sizes([50]))
        flb_manage_tick(state, PolicyParams(U=1.2, V=0.2, G=0.5))
        assert state.adjustments == []  # R = 0.5 sits between V and U; biggest fits


class TestFlbLeaseTick:
    def test_full_pool_nothing_to_provision(self):
        state = flb_state(B=25, owned=15, idle=15, ws=10, pbj_pool=15, ws_pool=10)
        flb_lease_tick(state)
        assert state.adjustments == []

    def test_idle_pool_capacity_provisioned(self):
        state = flb_state(B=25, owned=0, idle=0, ws=5, pbj_pool=0, ws_pool=5)
        flb_lease_tick(state)
        assert state.pbj_owned == 20
        assert state.adjustments == [("provision_service", 20)]

    def test_zero_pool_is_noop(self):
        state = flb_state(B=0, owned=0, idle=0)
        flb_lease_tick(state)
        assert state.adjustments == []


class TestFlbWsDemand:
    def test_acquire_pool_first_then_external(self):
        state = flb_state(B=25, owned=12, idle=12, floor=12, ws=0, pbj_pool=12, ws_pool=0)
        flb_ws_demand(state, 20)
        assert state.ws_pool == 13
        assert state.ws_external == 7

    def test_release_external_first(self):
        state = flb_state(B=25, owned=12, idle=12, ws=20, pbj_pool=12, ws_pool=13)
        flb_ws_demand(state, 15)
        assert state.ws_pool == 13 and state.ws_external == 2
        flb_ws_demand(state, 5)
        assert state.ws_pool == 5 and state.ws_external == 0


class TestEc2JobLifecycle:
    def test_exact_lease_unit(self):
        start, release = ec2_job_lifecycle(Job(1, 0, 3600, 4), PolicyParams(L=3600))
        assert (start, release) == (0, 3600)

    def test_runs_over_rounds_up(self):
        start, release = ec2_job_lifecycle(Job(1, 100, 3601, 4), PolicyParams(L=3600))
        assert (start, release) == (100, 100 + 7200)

    def test_starts_at_submission(self):
        start, _ = ec2_job_lifecycle(Job(1, 777, 10, 1), PolicyParams(L=3600))
        assert start == 777


class TestDcsAllocate:
    def test_static_split(self):
        regime = DCS(PolicyParams(), prc_pbj=128, prc_ws=128)
        assert regime.config_size == 256
        state = regime.initial_state()
        assert state.pbj_owned == state.pbj_idle == 128
        assert state.free == 0

    def test_config_must_match_peak_sum(self):
        with pytest.raises(ScenarioError):
            DCS(PolicyParams(), prc_pbj=144, prc_ws=129, config_size=272)


# (regime, constructor arguments past the two peaks, batch holdings)
ADMITTING = [("DCS", {}, 8), ("FB", {"config_size": 20}, 8),
             ("FLB_NUB", {"pbj_floor": 8}, 8), ("EC2RS", {}, 0)]


@pytest.mark.parametrize("name, kwargs, owned", ADMITTING, ids=[name for name, *_ in ADMITTING])
def test_admit_returns_the_jobs_to_start_and_starts_none(name, kwargs, owned):
    # Admission only decides: the kernel starts the jobs it returns, so the
    # running entries, their allocation and the kept attempt counts stay as
    # they were. Only EC2RS schedules an event, its lease's expiry.
    params = PolicyParams(B=10, L=600)
    regime = regime_class(name)(params, 8, 4, **kwargs)
    state = regime.initial_state()
    state.clock = 50
    state.pbj_owned = owned
    running = Job(9, 0, 1000, 2)
    state.running[running.id] = (running, 0, 1)
    state.running_alloc = running.size
    queued = [Job(1, 50, 700, 7), Job(2, 50, 100, 3), Job(3, 50, 1200, 4), Job(4, 50, 60, 1)]
    state.queue.push_front(queued)
    state.attempts[3] = 2  # job 3 was killed once and requeued
    before = (dict(state.running), state.running_alloc, dict(state.attempts))
    pushed = []
    started = regime.admit(state, lambda *event: pushed.append(event))
    assert (dict(state.running), state.running_alloc, dict(state.attempts)) == before
    if name == "EC2RS":
        assert list(started) == queued
        assert pushed == [(ec2_job_lifecycle(job, params)[1], KIND_LEASE_TICK, (job.id, job.size))
                          for job in queued]
        assert state.adjustments == [(ACTOR_PBJ, job.size) for job in queued]
    else:
        expected = first_fit_reference(queued, owned - running.size)
        assert list(started) == expected and [job.id for job in expected] == [2, 4]
        assert pushed == []
    assert len(state.queue) == len(queued) - len(started)


def test_regime_classes_named_as_regimes():
    assert [regime_class(name).__name__ for name in REGIMES] == list(REGIMES)


class TestWsInstanceController:
    def test_add_above_threshold(self):
        assert ws_instance_controller([0.85] * 5, 4) == 1

    def test_remove_below_scaled_threshold(self):
        assert ws_instance_controller([0.50] * 5, 4) == -1  # 0.50 < 0.80 * 3/4

    def test_dead_band(self):
        assert ws_instance_controller([0.70] * 5, 4) == 0  # 0.60 <= 0.70 <= 0.80

    def test_floor_at_two_instances(self):
        assert ws_instance_controller([0.01] * 5, 2) == 0

    def test_boundaries_are_exclusive(self):
        # Single-sample windows keep the mean exactly representable: the band
        # edges themselves trigger no action.
        assert ws_instance_controller([0.80], 4) == 0
        assert ws_instance_controller([0.8 * 1 / 2], 2) == 0

    def test_empty_window_no_change(self):
        assert ws_instance_controller([], 4) == 0

    def test_instance_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="instance count"):
            ws_instance_controller([0.5], 0)

    def test_hysteresis_thresholds_strictly_ordered(self):
        for n in range(2, 65):
            assert 0.80 * (n - 1) / n < 0.80
