#!/usr/bin/env python3
"""Crash-recovery harness for the drw serving snapshot (drw::resil).

Exercises the failure modes a unit test cannot: a real process killed with
SIGKILL in the middle of committing a snapshot, then restarted.

Scenarios (each against a scratch directory):

  1. kill -9 mid-commit: a serving process is killed inside the
     snapshot.commit window (tmp fsynced, rename pending -- held open with a
     delay_ms failpoint). The previous *complete* snapshot must survive, and
     a restart with --restore must report a warm restart.
  2. bit flip: one flipped payload byte must fail the CRC -> cold start.
  3. torn write: a snapshot.write short_write arming truncates the payload
     after the header promised the full size -> cold start.
  4. failpoint action smoke: throw kills the run with the injected fault on
     stderr, abort dies by signal, delay_ms completes normally, and a
     malformed DRW_FAILPOINTS spec refuses to start.
  5. kill -9 mid-convert: a `drw convert` killed inside the csr.commit
     window leaves only the stray .tmp (no half-renamed cache); serving
     --graph=X.csr then degrades to the text sibling (the `graph: text`
     provenance line). A csr.write short_write tears the payload instead --
     the renamed file must fail the CRC and degrade identically, and a
     subsequent clean convert must serve from the CSR (`graph: csr`).
  6. kill -9 of the LISTENING server mid-batch: a `drw serve --listen`
     process snapshots after its first served batch, stalls inside the
     second (service.batch delay failpoint, with a live `drw request`
     client mid-flight), and is SIGKILLed there. An offline restart with
     --restore must report a warm restart from the surviving snapshot.
  7. kill -9 of a path-recording server: `serve --paths` snapshots after
     batch 1 and is SIGKILLed inside the next commit window. A restart
     with --restore serving the remaining batches must report a warm
     restart and print the same result lines, recorded paths included,
     as an uninterrupted run prints for those batches.

Exit status 0 when every scenario passes, 1 otherwise.

Usage: tools/crash_harness.py BUILD_DIR/drw
"""

import os
import signal
import subprocess
import sys
import tempfile
import time

# Long walks on a small regular graph: lambda lands well under l, so the
# engine prepares a real short-walk inventory (a naive-mode engine has no
# state worth snapshotting and maybe_snapshot correctly skips it).
REQUESTS = """\
0 2048 2
5 2048 1
9 1500 2
17 2048 1
23 1800 2
31 2048 1
40 1500 2
44 2048 1
50 1800 2
57 2048 1
60 1500 2
63 2048 1
"""

failures = []


def check(ok: bool, what: str) -> None:
    print(f"  {'ok' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def serve_args(work: str) -> list:
    reqs = os.path.join(work, "reqs.txt")
    if not os.path.exists(reqs):
        with open(reqs, "w") as f:
            f.write(REQUESTS)
    return ["serve", "--graph=regular:64,4", "--seed=7",
            f"--requests={reqs}", "--batch-size=3", "--threads=2"]


def run(drw, work, extra, failpoints=None, timeout=120):
    env = dict(os.environ)
    env.pop("DRW_FAILPOINTS", None)
    if failpoints is not None:
        env["DRW_FAILPOINTS"] = failpoints
    return subprocess.run([drw] + serve_args(work) + extra, env=env,
                          capture_output=True, text=True, timeout=timeout)


def scenario_kill_mid_commit(drw: str, work: str) -> None:
    print("scenario 1: kill -9 inside the snapshot.commit window")
    snap = os.path.join(work, "snap.bin")
    tmp = snap + ".tmp"
    env = dict(os.environ)
    # Snapshot 1 (after batch 1) commits normally; snapshot 2 stalls for 30s
    # between fsync(tmp) and rename -- the widest torn-state window there is.
    env["DRW_FAILPOINTS"] = "snapshot.commit@2:delay_ms=30000"
    proc = subprocess.Popen([drw] + serve_args(work) + [f"--snapshot={snap}"],
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + 60
        while time.time() < deadline:
            # The stall holds the .tmp in existence; the real snapshot from
            # batch 1 is already in place.
            if os.path.exists(tmp) and os.path.exists(snap):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        check(proc.poll() is None, "process still serving inside the window")
        check(os.path.exists(snap), "previous complete snapshot in place")
        check(os.path.exists(tmp), "pending .tmp held open by the stall")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    check(os.path.exists(snap), "snapshot survives the SIGKILL")
    restart = run(drw, work, [f"--snapshot={snap}", "--restore"])
    check(restart.returncode == 0, "restart exits 0")
    check("snapshot: warm restart" in restart.stdout,
          "restart reports a warm restart")


def scenario_bit_flip(drw: str, work: str) -> None:
    print("scenario 2: flipped payload byte fails the CRC")
    snap = os.path.join(work, "snap.bin")
    with open(snap, "rb") as f:
        blob = bytearray(f.read())
    blob[48] ^= 0x20  # payload starts at byte 32
    with open(snap, "wb") as f:
        f.write(blob)
    restart = run(drw, work, [f"--snapshot={snap}", "--restore"])
    check(restart.returncode == 0, "cold start exits 0")
    check("snapshot: cold start" in restart.stdout,
          "corrupt snapshot reported as a cold start")
    check("checksum" in restart.stderr, "CRC named as the detection reason")


def scenario_short_write(drw: str, work: str) -> None:
    print("scenario 3: short_write torn snapshot fails validation")
    snap = os.path.join(work, "torn.bin")
    # 12 requests / batch-size 3 = 4 snapshot writes; tear the LAST one so
    # the torn file is what a restart finds (earlier good snapshots would
    # otherwise be overwritten on top of it).
    first = run(drw, work, [f"--snapshot={snap}"],
                failpoints="snapshot.write@4:short_write")
    check(first.returncode == 0, "serving survives the torn write")
    check(os.path.exists(snap), "torn snapshot renamed into place")
    restart = run(drw, work, [f"--snapshot={snap}", "--restore"])
    check(restart.returncode == 0, "cold start exits 0")
    check("snapshot: cold start" in restart.stdout,
          "torn snapshot reported as a cold start")


def scenario_action_smoke(drw: str, work: str) -> None:
    print("scenario 4: failpoint action smoke")
    thrown = run(drw, work, [], failpoints="service.batch@1:throw")
    check(thrown.returncode != 0, "throw action kills the run")
    check("injected fault at failpoint 'service.batch'" in thrown.stderr,
          "injected fault names its site on stderr")

    aborted = run(drw, work, [], failpoints="net.round.compute@1:abort")
    check(aborted.returncode < 0, "abort action dies by signal")
    check("aborting at failpoint 'net.round.compute'" in aborted.stderr,
          "abort names its site on stderr")

    delayed = run(drw, work, [], failpoints="service.batch@1:delay_ms=10")
    check(delayed.returncode == 0, "delay_ms action continues normally")
    check("served 12 requests" in delayed.stdout,
          "delayed run serves the full workload")

    malformed = run(drw, work, [], failpoints="not-a-spec")
    check(malformed.returncode != 0, "malformed spec refuses to start")
    check("bad DRW_FAILPOINTS" in malformed.stderr,
          "malformed spec diagnosed on stderr")


def graph_provenance(stdout: str) -> str:
    """The machine-greppable `graph: csr|text|generator` line drw prints."""
    for line in stdout.splitlines():
        if line.startswith("graph: "):
            return line[len("graph: "):].split(" ", 1)[0]
    return ""


def scenario_kill_mid_convert(drw: str, work: str) -> None:
    print("scenario 5: kill -9 mid-convert leaves a text-serving fallback")
    text = os.path.join(work, "ingest.txt")
    csr = text + ".csr"
    # A deterministic graph with >= 64 nodes so the serve REQUESTS above are
    # all in range: a 64-cycle plus chords (every node degree >= 2).
    with open(text, "w") as f:
        f.write("# nodes 64\n")
        for i in range(64):
            f.write(f"{i} {(i + 1) % 64}\n")
            f.write(f"{i} {(i + 7) % 64}\n")

    env = dict(os.environ)
    env["DRW_FAILPOINTS"] = "csr.commit@1:delay_ms=30000"
    proc = subprocess.Popen([drw, "convert", text, csr], env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + 60
        while time.time() < deadline:
            if os.path.exists(csr + ".tmp") or proc.poll() is not None:
                break
            time.sleep(0.02)
        check(proc.poll() is None, "convert stalled inside the commit window")
        check(os.path.exists(csr + ".tmp"), "pending .tmp fsynced in place")
        check(not os.path.exists(csr), "no half-renamed .csr ever visible")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    check(not os.path.exists(csr), "kill leaves only the stray .tmp")
    served = subprocess.run(
        [drw] + serve_args(work) + [f"--graph={csr}"],
        env={k: v for k, v in os.environ.items() if k != "DRW_FAILPOINTS"},
        capture_output=True, text=True, timeout=120)
    check(served.returncode == 0, "serve --graph=X.csr exits 0 after the kill")
    check(graph_provenance(served.stdout) == "text",
          "missing cache degrades to the text sibling (graph: text)")

    # Torn write: the renamed file exists but half the payload is missing;
    # validation must reject it and fall back identically.
    env["DRW_FAILPOINTS"] = "csr.write@1:short_write"
    torn = subprocess.run([drw, "convert", text, csr], env=env,
                          capture_output=True, text=True, timeout=120)
    check(torn.returncode == 0, "convert survives the torn write")
    check(os.path.exists(csr), "torn .csr renamed into place")
    served = subprocess.run(
        [drw] + serve_args(work) + [f"--graph={csr}"],
        env={k: v for k, v in os.environ.items() if k != "DRW_FAILPOINTS"},
        capture_output=True, text=True, timeout=120)
    check(served.returncode == 0, "serve exits 0 on the torn cache")
    check(graph_provenance(served.stdout) == "text",
          "torn cache degrades to the text sibling (graph: text)")

    # And a clean convert heals it: the next serve runs from the mmap.
    clean = subprocess.run([drw, "convert", text, csr],
                           env={k: v for k, v in os.environ.items()
                                if k != "DRW_FAILPOINTS"},
                           capture_output=True, text=True, timeout=120)
    check(clean.returncode == 0, "clean re-convert exits 0")
    served = subprocess.run(
        [drw] + serve_args(work) + [f"--graph={csr}"],
        env={k: v for k, v in os.environ.items() if k != "DRW_FAILPOINTS"},
        capture_output=True, text=True, timeout=120)
    check(served.returncode == 0, "serve exits 0 on the healed cache")
    check(graph_provenance(served.stdout) == "csr",
          "healed cache serves from the mmap (graph: csr)")


def scenario_kill_listening_server(drw: str, work: str) -> None:
    print("scenario 6: kill -9 of the listening server mid-batch")
    snap = os.path.join(work, "snap_listen.bin")
    reqs = os.path.join(work, "reqs.txt")
    serve_args(work)  # ensure reqs.txt exists
    env = dict(os.environ)
    # Interactive arrivals drain one request per batch: batch 1 serves and
    # snapshots normally, batch 2 stalls for 30s -- the kill lands with a
    # client request admitted and mid-serve.
    env["DRW_FAILPOINTS"] = "service.batch@2:delay_ms=30000"
    proc = subprocess.Popen(
        [drw, "serve", "--graph=regular:64,4", "--seed=7",
         "--listen=127.0.0.1:0", f"--snapshot={snap}"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    client = None
    try:
        port = None
        deadline = time.time() + 60
        while time.time() < deadline:
            line = proc.stdout.readline()  # banner lines precede listening:
            if not line:
                break
            if line.startswith("listening: "):
                port = line.strip().rsplit(":", 1)[-1]
                break
        check(port is not None,
              "listening server prints its listening: line")
        client_env = dict(os.environ)
        client_env.pop("DRW_FAILPOINTS", None)
        client = subprocess.Popen(
            [drw, "request", f"--connect=127.0.0.1:{port}",
             f"--requests={reqs}"],
            env=client_env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        deadline = time.time() + 60
        while time.time() < deadline:
            if os.path.exists(snap) or proc.poll() is not None:
                break
            time.sleep(0.02)
        check(proc.poll() is None, "server alive inside the stalled batch")
        check(os.path.exists(snap), "batch-1 snapshot committed before kill")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if client is not None:
            client.kill()
            client.wait()

    check(os.path.exists(snap), "snapshot survives the SIGKILL")
    restart = run(drw, work, [f"--snapshot={snap}", "--restore"])
    check(restart.returncode == 0, "offline restart exits 0")
    check("snapshot: warm restart" in restart.stdout,
          "restart after the listening-server kill reports a warm restart")


# Every other request records its path; 3 requests per batch.
PATH_REQUESTS = "".join(
    f"{line} {i % 2}\n"
    for i, line in enumerate(REQUESTS.strip().splitlines()))


def result_lines(stdout: str, skip: int = 0) -> list:
    """The `result[IDX] ...` lines of requests IDX >= skip, renumbered from
    0, so a run that starts later compares line for line."""
    out = []
    for line in stdout.splitlines():
        if not line.startswith("result["):
            continue
        idx, rest = line[len("result["):].split("]", 1)
        if int(idx) >= skip:
            out.append(f"result[{int(idx) - skip}]{rest}")
    return out


def scenario_kill_paths_server(drw: str, work: str) -> None:
    print("scenario 7: kill -9 of a path-recording server, warm restart")
    snap = os.path.join(work, "snap_paths.bin")
    reqs = os.path.join(work, "reqs_paths.txt")
    rest = os.path.join(work, "reqs_paths_rest.txt")
    lines = PATH_REQUESTS.splitlines(keepends=True)
    with open(reqs, "w") as f:
        f.writelines(lines)
    with open(rest, "w") as f:
        f.writelines(lines[3:])  # batches 2.. of the full file
    base = ["serve", "--graph=regular:64,4", "--seed=7", "--batch-size=3",
            "--threads=2", "--paths"]
    env = {k: v for k, v in os.environ.items() if k != "DRW_FAILPOINTS"}

    whole = subprocess.run([drw] + base + [f"--requests={reqs}",
                                           "--print-results"],
                           env=env, capture_output=True, text=True,
                           timeout=120)
    check(whole.returncode == 0, "uninterrupted paths run exits 0")
    expected = result_lines(whole.stdout, skip=3)  # after batch 1
    check(any(" path:" in l for l in expected),
          "uninterrupted run prints recorded paths after batch 1")

    kill_env = dict(env)
    kill_env["DRW_FAILPOINTS"] = "snapshot.commit@2:delay_ms=30000"
    proc = subprocess.Popen([drw] + base + [f"--requests={reqs}",
                                            f"--snapshot={snap}"],
                            env=kill_env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + 60
        while time.time() < deadline:
            if (os.path.exists(snap + ".tmp") and os.path.exists(snap)) or \
                    proc.poll() is not None:
                break
            time.sleep(0.02)
        check(proc.poll() is None, "paths server stalled in commit 2")
        check(os.path.exists(snap), "batch-1 snapshot committed before kill")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    restart = subprocess.run([drw] + base + [f"--requests={rest}",
                                             f"--snapshot={snap}",
                                             "--restore", "--print-results"],
                             env=env, capture_output=True, text=True,
                             timeout=120)
    check(restart.returncode == 0, "paths restart exits 0")
    check("snapshot: warm restart" in restart.stdout,
          "paths restart reports a warm restart")
    got = result_lines(restart.stdout)
    check(len(got) > 0 and got == expected,
          f"restarted result lines equal the uninterrupted run's "
          f"({len(got)} vs {len(expected)} lines)")


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    drw = os.path.abspath(sys.argv[1])
    if not os.access(drw, os.X_OK):
        print(f"crash_harness: not executable: {drw}")
        return 2
    with tempfile.TemporaryDirectory(prefix="drw_crash_") as work:
        scenario_kill_mid_commit(drw, work)
        scenario_bit_flip(drw, work)    # corrupts scenario 1's snapshot
        scenario_short_write(drw, work)
        scenario_action_smoke(drw, work)
        scenario_kill_mid_convert(drw, work)
        scenario_kill_listening_server(drw, work)
        scenario_kill_paths_server(drw, work)
    if failures:
        print(f"crash_harness: FAIL ({len(failures)} check(s))")
        return 1
    print("crash_harness: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
