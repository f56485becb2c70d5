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
def fixture_records(fixture_csv):
    records, rejects = ingest.parse_accident_csv(fixture_csv)
    assert not rejects
    return ingest.filter_region(records, FIXTURE_REGION)


@pytest.fixture(scope="session")
def fixture_table(fixture_records):
    return ingest.RecordTable.from_records(fixture_records)


@pytest.fixture(scope="session")
def fixture_graph(fixture_records):
    return build_graph(
        [r.lon for r in fixture_records],
        [r.lat for r in fixture_records],
        FIXTURE_CONFIG.graph,
        center=FIXTURE_REGION.center,
    )


@pytest.fixture(scope="session")
def fixture_tensor(fixture_records, fixture_graph):
    graph, assignment = fixture_graph
    return build_risk_tensor(
        WeightTables.default(),
        fixture_records,
        assignment,
        range(graph.n_nodes),
        FIXTURE_REGION.period,
    )
