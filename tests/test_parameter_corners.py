"""Corner-of-parameter-space tests that no other file pins down."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pcr import PcrParameters, compute_pcr
from repro.errors import PcrDomainError
from repro.routing.coolest import run_coolest_collection


class TestPcrDomainFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=2.05, max_value=8.0),
        st.floats(min_value=0.5, max_value=100.0),
        st.floats(min_value=0.5, max_value=100.0),
        st.floats(min_value=-10.0, max_value=20.0),
        st.floats(min_value=-10.0, max_value=20.0),
    )
    def test_corrected_bounds_always_valid(
        self, alpha, pu_power, su_power, eta_p_db, eta_s_db
    ):
        """The safe and exact zeta bounds never leave their domain and
        always produce kappa >= 1 with the primary/secondary structure of
        Eq. 16 intact."""
        for variant in ("safe", "exact"):
            result = compute_pcr(
                PcrParameters(
                    alpha=alpha,
                    pu_power=pu_power,
                    su_power=su_power,
                    pu_radius=10.0,
                    su_radius=10.0,
                    eta_p_db=eta_p_db,
                    eta_s_db=eta_s_db,
                    zeta_bound=variant,
                )
            )
            assert result.kappa >= 1.0
            assert result.kappa == max(
                result.primary_term, result.secondary_term
            )
            assert result.pcr == pytest.approx(result.kappa * 10.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=2.05, max_value=8.0))
    def test_paper_bound_raises_exactly_where_c2_dies(self, alpha):
        from repro.core.pcr import zeta_series_bound
        import math

        c2 = 6.0 + 6.0 * (math.sqrt(3.0) / 2.0) ** (-alpha) * zeta_series_bound(
            alpha, "paper"
        )
        params = PcrParameters(alpha=alpha, zeta_bound="paper")
        if c2 <= 0:
            with pytest.raises(PcrDomainError):
                compute_pcr(params)
        else:
            assert compute_pcr(params).kappa >= 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=2.1, max_value=4.1),
        st.floats(min_value=0.0, max_value=15.0),
    )
    def test_paper_pcr_below_corrected_pcr(self, alpha, eta_db):
        """The flawed bound always *under*-sizes the sensing range."""
        base = dict(
            alpha=alpha,
            pu_radius=10.0,
            su_radius=10.0,
            eta_p_db=eta_db,
            eta_s_db=eta_db,
        )
        paper = compute_pcr(PcrParameters(zeta_bound="paper", **base)).pcr
        exact = compute_pcr(PcrParameters(zeta_bound="exact", **base)).pcr
        safe = compute_pcr(PcrParameters(zeta_bound="safe", **base)).pcr
        assert paper < exact < safe


class TestCoolestCsmaRange:
    def test_pcr_csma_baseline_is_collision_light(self, quick_topology, streams):
        """Giving Coolest the PCR for SU sensing (the pure-routing
        comparison) removes nearly all its hidden-terminal losses."""
        r_csma = run_coolest_collection(
            quick_topology, streams.spawn("cr-r"), blocking="homogeneous"
        )
        pcr_csma = run_coolest_collection(
            quick_topology,
            streams.spawn("cr-pcr"),
            blocking="homogeneous",
            csma_range=r_csma.pcr.pcr,
        )
        assert pcr_csma.result.completed
        assert pcr_csma.result.collisions <= r_csma.result.collisions
        assert pcr_csma.sense_map.su_csma_range == pytest.approx(r_csma.pcr.pcr)


class TestUnicastSameSource:
    def test_one_source_many_destinations(self, tiny_topology, streams):
        from tests.test_unicast import run_unicast as run_unicast_engine

        flows = [(5, 10), (5, 20), (5, 3)]
        policy, result = run_unicast_engine(
            tiny_topology, streams.spawn("multi-dest"), flows
        )
        assert result.completed
        assert result.delivered == 3
        for index, (source, destination) in enumerate(flows):
            route = policy.route_of(index)
            assert route[0] == source and route[-1] == destination
