# ctest driver for the replication availability gate (docs/SERVING.md).
#
# Proves that replication — not luck, stealing, or the circuit breaker —
# closes the availability hole left by a mid-run shard kill. Shard 1 stalls
# 2 s per execution against a 1 s deadline, so every request its workers
# pick up during the kill window is unrescuable on that shard:
#
#   * R=2: hedges fire 20 ms in on a *different* replica and finish inside
#     the deadline. completed/submitted must stay >= 0.999 (exit 0).
#   * R=1: the replica set is just the stalled shard; its in-flight
#     requests blow the deadline and the gate must trip (exit 7).
#
# Both runs share one seed and kill/heal schedule, so the only variable is
# the replication factor. Invoked by the `serve_availability_gate` test as
#   cmake -DSERVE=<mocha_serve> [-DISA=scalar] -P availability_gate.cmake

set(common
    --seed 42 --shards 3 --requests 200 --rate 400 --queue-cap 64
    --deadline-ms 1000 --stall-ms 2000 --hedge-ms 20
    --kill-shard 1 --kill-after 0.25 --heal-shard-after 0.8
    --availability-min 0.999)
if(ISA)
  list(APPEND common --isa ${ISA})
endif()

# Runs the gate scenario at replication factor `replicas` and asserts the
# exact exit code — a crash, an SLO miss (1), or a conservation violation
# (4) all fail the test, not just the wrong availability verdict.
function(expect_gate replicas want)
  execute_process(COMMAND ${SERVE} --replicas ${replicas} ${common}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL ${want})
    message(FATAL_ERROR "R=${replicas}: expected exit ${want}, got '${code}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

expect_gate(2 0)   # replicated run must meet 0.999
expect_gate(1 7)   # same run without replication must demonstrably violate

message(STATUS "availability gate: R=2 meets 0.999, R=1 trips exit 7")
