"""HTTP contract tests against a workers=0 server (nothing executes).

With zero workers every submitted job stays ``queued``, so these tests
exercise the full HTTP surface — routing, status codes, validation errors,
cancel-while-queued, the 409 result gate — without ever paying for a solve
subprocess.  The end-to-end behaviour with real workers lives in
``test_service.py``.
"""

import gc
import json
import logging
import os
import socket
import sys
import time

import pytest

from repro.serve import ServeClient, ServeThread, ServiceError
from repro.serve.http import _MAX_BODY


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with ServeThread(str(tmp_path_factory.mktemp("serve")), workers=0) as app:
        yield ServeClient(port=app.port, timeout=30)


class TestEndpoints:
    def test_healthz(self, service):
        payload = service.healthz()
        assert payload["status"] == "ok"
        assert payload["workers"] == 0

    def test_stats_shape(self, service):
        payload = service.stats()
        assert set(payload) >= {"workers", "workers_busy", "queue_depth", "jobs",
                                "jobs_completed", "uptime", "runner"}
        assert payload["workers"] == 0
        runner = payload["runner"]
        assert set(runner) == {"mode", "zygote_pid", "zygote_starts", "forks"}
        assert runner["mode"] == ("fork" if hasattr(os, "fork") else "spawn")

    def test_submit_returns_queued_record(self, service):
        record = service.submit(problem="zdt1", generations=3)
        assert record["state"] == "queued"
        assert record["spec"]["problem"] == "zdt1"
        assert service.job(record["id"])["state"] == "queued"

    def test_jobs_listing_is_in_submission_order(self, service):
        first = service.submit(problem="zdt1")
        second = service.submit(problem="schaffer")
        listed = [job["id"] for job in service.jobs()]
        assert listed.index(first["id"]) < listed.index(second["id"])

    def test_cancel_queued_job(self, service):
        record = service.submit(problem="zdt1")
        cancelled = service.cancel(record["id"])
        assert cancelled["state"] == "cancelled"
        # idempotent: a second cancel returns the same terminal record
        assert service.cancel(record["id"])["state"] == "cancelled"

    def test_result_is_409_until_done(self, service):
        record = service.submit(problem="zdt1")
        with pytest.raises(ServiceError) as excinfo:
            service.result(record["id"])
        assert excinfo.value.status == 409

    def test_events_replay_for_terminal_job_ends_immediately(self, service):
        record = service.submit(problem="zdt1")
        service.cancel(record["id"])
        events = list(service.stream(record["id"]))
        assert events[0]["type"] == "state"
        assert events[-1]["state"] == "cancelled"


class TestErrorMapping:
    def test_unknown_job_is_404(self, service):
        for call in (service.job, service.result, service.cancel):
            with pytest.raises(ServiceError) as excinfo:
                call("000999-nope")
            assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unknown_problem_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit(problem="no-such-problem")
        assert excinfo.value.status == 400
        assert "unknown problem 'no-such-problem'" in str(excinfo.value)

    def test_unknown_algorithm_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit(problem="zdt1", algorithm="nsga")
        assert excinfo.value.status == 400
        assert "unknown solver 'nsga' — did you mean nsga2?" in str(excinfo.value)

    def test_unknown_spec_field_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit(problem="zdt1", pop_size=10)
        assert excinfo.value.status == 400

    def test_invalid_json_body_is_400(self, service):
        import http.client

        connection = http.client.HTTPConnection(service.host, service.port, timeout=10)
        try:
            connection.request("POST", "/jobs", body=b"{not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_stream_of_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            list(service.stream("000999-nope"))
        assert excinfo.value.status == 404


def _raw_request(service, head: str) -> tuple[int, dict]:
    """Send ``head`` (request line and headers, no body) on a raw socket.

    Returns the response status and JSON body.  The write side is shut
    after the head, so a server that waits for the declared body sees the
    end of the stream instead of hanging.
    """
    with socket.create_connection((service.host, service.port), timeout=10) as sock:
        sock.sendall(head.encode("latin-1"))
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    status_line, _, rest = response.partition(b"\r\n")
    body = rest.partition(b"\r\n\r\n")[2]
    return int(status_line.split()[1]), json.loads(body)


class TestContentLength:
    def test_body_above_the_limit_is_413_before_reading_it(self, service):
        status, payload = _raw_request(
            service,
            "POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (_MAX_BODY + 1),
        )
        assert status == 413
        assert "exceeds" in payload["error"]

    def test_negative_length_is_400(self, service):
        status, payload = _raw_request(
            service, "POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
        )
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_non_integer_length_is_400(self, service):
        status, payload = _raw_request(
            service, "GET /healthz HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
        )
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_valid_length_still_reaches_the_route(self, service):
        status, payload = _raw_request(
            service, "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        )
        assert (status, payload["status"]) == (200, "ok")


class TestDurability:
    def test_submitted_jobs_survive_into_a_new_server(self, tmp_path):
        with ServeThread(str(tmp_path), workers=0) as app:
            client = ServeClient(port=app.port, timeout=30)
            record = client.submit(problem="zdt1", generations=3)
        with ServeThread(str(tmp_path), workers=0) as app:
            client = ServeClient(port=app.port, timeout=30)
            assert client.job(record["id"])["state"] == "queued"
            assert client.stats()["queue_depth"] == 1


class TestShutdown:
    def test_stop_ends_open_connections_without_loop_errors(self, tmp_path, caplog,
                                                            monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        caplog.set_level(logging.ERROR, logger="asyncio")
        app = ServeThread(str(tmp_path), workers=0).start()
        sock = socket.create_connection(("127.0.0.1", app.port), timeout=10)
        try:
            # Half a request: the handler stays blocked reading headers.
            sock.sendall(b"GET /stats HTTP/1.1\r\n")
            time.sleep(0.2)
            app.stop()
            gc.collect()
            # The server closed its end of the half-open connection.
            assert sock.recv(1024) == b""
        finally:
            sock.close()
        gc.collect()
        assert [record.getMessage() for record in caplog.records] == []
        assert [str(hook.exc_value) for hook in unraisable] == []
