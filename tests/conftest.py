import pytest

from roadrisk import ingest
from roadrisk.features import WeightTables, build_risk_tensor
from roadrisk.graph import GraphParams, build_graph
from roadrisk.synthetic import fixture_region, write_fixture_csv


@pytest.fixture(scope="session")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "fixture_accidents.csv"
    write_fixture_csv(path)
    return path


@pytest.fixture(scope="session")
def fixture_records(fixture_csv):
    records, rejects = ingest.parse_accident_csv(fixture_csv)
    assert not rejects
    return ingest.filter_region(records, fixture_region())


@pytest.fixture(scope="session")
def fixture_graph(fixture_records):
    region = fixture_region()
    return build_graph(
        [r.lon for r in fixture_records],
        [r.lat for r in fixture_records],
        GraphParams(cell_size_m=150.0, k=4),
        center=region.center,
    )


@pytest.fixture(scope="session")
def fixture_tensor(fixture_records, fixture_graph):
    graph, assignment = fixture_graph
    return build_risk_tensor(
        WeightTables.default(),
        fixture_records,
        assignment,
        range(graph.n_nodes),
        fixture_region().period,
    )
