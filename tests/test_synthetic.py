import numpy as np

from roadrisk import ingest
from roadrisk.synthetic import FIXTURE_WEEKS, generate_rows

from helpers import FIXTURE_REGION


def test_generator_deterministic():
    a = generate_rows()
    b = generate_rows()
    assert a == b


def test_fixture_parses_clean(fixture_csv):
    table, rejects = ingest.parse_accident_csv(fixture_csv)
    assert rejects == []
    assert len(table) > 2000
    assert table.within(FIXTURE_REGION) is table  # every row lies in the region


def test_fixture_thirty_nodes(fixture_graph):
    graph, assignment = fixture_graph
    assert graph.n_nodes == 30
    assert (np.bincount(assignment) > 0).all()


def test_fixture_is_seasonal(fixture_table, fixture_graph):
    graph, assignment = fixture_graph
    weekly = ingest.aggregate_temporal(
        fixture_table, assignment, ingest.Granularity.WEEKLY,
        graph.n_nodes, FIXTURE_REGION.period,
    )
    totals = weekly.totals()
    assert len(totals) == FIXTURE_WEEKS
    # a yearly cycle: lag-52 autocorrelation of weekly totals is strongly positive
    lag = 52
    r = np.corrcoef(totals[:-lag], totals[lag:])[0, 1]
    assert r > 0.5
    assert totals.max() > 3 * totals.min() + 1


def test_fixture_snr_ordering(fixture_table, fixture_graph):
    graph, assignment = fixture_graph
    values = {}
    for granularity in ingest.Granularity:
        series = ingest.aggregate_temporal(
            fixture_table, assignment, granularity, graph.n_nodes, FIXTURE_REGION.period
        )
        values[granularity] = ingest.snr(series)
    assert values[ingest.Granularity.WEEKLY] > values[ingest.Granularity.DAILY]
    assert values[ingest.Granularity.MONTHLY] > values[ingest.Granularity.WEEKLY]


def test_fixture_winter_tilts_environment(fixture_table):
    from roadrisk.features import WeightTables

    tables = WeightTables.default()

    def environmental_risk(record):
        weights = tables.categories
        return (weights["surface"][record.surface] + weights["weather"][record.weather]) / 2.0

    winter = [r for r in fixture_table if r.date.month in (12, 1, 2)]
    summer = [r for r in fixture_table if r.date.month in (6, 7, 8)]
    env_winter = np.mean([environmental_risk(r) for r in winter])
    env_summer = np.mean([environmental_risk(r) for r in summer])
    assert env_winter > env_summer + 0.05
