"""Engine / error-spec submission fields are validated at the door."""

import json

import pytest

from repro.serve import CedService, ServeConfig
from repro.serve.protocol import HttpError, HttpRequest


@pytest.fixture
def service(tmp_path):
    return CedService(ServeConfig(state_dir=str(tmp_path)),
                      log=lambda line: None)


BLIF = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"


def json_request(doc):
    return HttpRequest(method="POST", path="/v1/jobs",
                       headers={"content-type": "application/json"},
                       body=json.dumps(doc).encode())


def query_request(query):
    return HttpRequest(method="POST", path="/v1/jobs", query=query,
                       headers={}, body=BLIF.encode())


class TestJsonSubmissions:
    def test_engine_and_error_fold_into_config(self, service):
        _, params = service._parse_submission(json_request(
            {"blif": BLIF, "engine": "resub",
             "error": {"metric": "er", "bound": 0.05}}))
        assert params["config"]["engine"] == "resub"
        assert params["config"]["error"] == {"metric": "er",
                                             "bound": 0.05}

    def test_plain_submission_has_no_config(self, service):
        _, params = service._parse_submission(json_request(
            {"blif": BLIF}))
        assert "config" not in params

    def test_unknown_engine_is_structured_400(self, service):
        with pytest.raises(HttpError) as excinfo:
            service._parse_submission(json_request(
                {"blif": BLIF, "engine": "nope"}))
        assert excinfo.value.status == 400
        assert excinfo.value.detail.get("field") == "engine"

    def test_resub_without_error_is_400(self, service):
        with pytest.raises(HttpError) as excinfo:
            service._parse_submission(json_request(
                {"blif": BLIF, "engine": "resub"}))
        assert excinfo.value.status == 400
        assert excinfo.value.detail.get("field") == "error"

    def test_malformed_error_object_is_400(self, service):
        with pytest.raises(HttpError) as excinfo:
            service._parse_submission(json_request(
                {"blif": BLIF, "engine": "resub", "error": "0.05"}))
        assert excinfo.value.status == 400

    def test_unknown_error_field_is_400(self, service):
        with pytest.raises(HttpError) as excinfo:
            service._parse_submission(json_request(
                {"blif": BLIF, "engine": "resub",
                 "error": {"metric": "er", "bound": 0.05,
                           "confidence": 0.9}}))
        assert excinfo.value.status == 400

    def test_exact_threshold_above_limit_is_400(self, service):
        with pytest.raises(HttpError) as excinfo:
            service._parse_submission(json_request(
                {"blif": BLIF, "engine": "resub",
                 "error": {"metric": "er", "bound": 0.05,
                           "exact_threshold": 40}}))
        assert excinfo.value.status == 400
        assert excinfo.value.detail.get("field") == \
            "error.exact_threshold"

    def test_bad_config_object_is_400_not_failed_job(self, service):
        with pytest.raises(HttpError) as excinfo:
            service._parse_submission(json_request(
                {"blif": BLIF, "config": {"sead": 7}}))
        assert excinfo.value.status == 400
        assert "sead" in str(excinfo.value)

    def test_engine_field_overrides_config_engine(self, service):
        _, params = service._parse_submission(json_request(
            {"blif": BLIF, "engine": "resub",
             "config": {"engine": "cube"},
             "error": {"metric": "er", "bound": 0.05}}))
        assert params["config"]["engine"] == "resub"


class TestQuerySubmissions:
    def test_raw_blif_error_flags(self, service):
        blif, params = service._parse_submission(query_request(
            {"engine": "resub", "error_metric": "er",
             "error_bound": "0.05", "error_exact_threshold": "10"}))
        assert blif == BLIF
        assert params["config"]["engine"] == "resub"
        assert params["config"]["error"] == {
            "metric": "er", "bound": 0.05, "exact_threshold": 10}

    def test_raw_blif_bad_bound_is_400(self, service):
        with pytest.raises(HttpError) as excinfo:
            service._parse_submission(query_request(
                {"engine": "resub", "error_metric": "er",
                 "error_bound": "lots"}))
        assert excinfo.value.status == 400

    def test_raw_blif_exact_threshold_above_limit_is_400(self, service):
        with pytest.raises(HttpError) as excinfo:
            service._parse_submission(query_request(
                {"engine": "resub", "error_metric": "er",
                 "error_bound": "0.05", "error_exact_threshold": "40"}))
        assert excinfo.value.status == 400
        assert excinfo.value.detail.get("field") == \
            "error.exact_threshold"
