import pytest

from roadrisk import ingest
from roadrisk.features import WeightTables, build_risk_tensor
from roadrisk.graph import build_graph
from roadrisk.synthetic import write_fixture_csv

from helpers import FIXTURE_CONFIG, FIXTURE_REGION


@pytest.fixture(scope="session")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "fixture_accidents.csv"
    write_fixture_csv(path)
    return path


@pytest.fixture(scope="session")
def fixture_table(fixture_csv):
    table, rejects = ingest.parse_accident_csv(fixture_csv)
    assert not rejects
    return table.within(FIXTURE_REGION)


@pytest.fixture(scope="session")
def fixture_graph(fixture_table):
    return build_graph(
        fixture_table.lon, fixture_table.lat, FIXTURE_CONFIG.graph, center=FIXTURE_REGION.center
    )


@pytest.fixture(scope="session")
def fixture_tensor(fixture_table, fixture_graph):
    graph, assignment = fixture_graph
    return build_risk_tensor(
        WeightTables.default(),
        fixture_table,
        assignment,
        range(graph.n_nodes),
        FIXTURE_REGION.period,
    )
