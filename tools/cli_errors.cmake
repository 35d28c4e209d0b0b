# ctest driver for CLI robustness: malformed command lines must exit with
# status 2 and an explanation on stderr — never abort, never run anyway.
#
# Invoked by the `cli_errors` test as
#   cmake -DSIM=<mocha_sim> -DFIG=<fig_degradation> -DSERVE=<mocha_serve>
#         -P cli_errors.cmake

# Runs `exe` with the remaining arguments and asserts exit code 2. When
# `pattern` is non-empty, stderr must match it (e.g. "usage" proves the
# parser rejected the flag rather than something downstream blowing up).
function(expect_rejected exe pattern)
  execute_process(COMMAND ${exe} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR
            "${exe} ${ARGN}: expected exit 2, got '${code}'\nstderr:\n${err}")
  endif()
  if(pattern AND NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
            "${exe} ${ARGN}: stderr does not match '${pattern}':\n${err}")
  endif()
endfunction()

# --- mocha_sim: flag parsing ---
expect_rejected(${SIM} "usage" --frobnicate)
expect_rejected(${SIM} "usage" --batch)                 # missing value
expect_rejected(${SIM} "usage" --batch notanumber)
expect_rejected(${SIM} "usage" --batch=)                # empty inline value
expect_rejected(${SIM} "usage" --batch 4x)              # trailing junk
expect_rejected(${SIM} "usage" --batch 0)               # below range
expect_rejected(${SIM} "usage" --batch 99999999999999999999)  # stoll overflow
expect_rejected(${SIM} "usage" --pe=-4)
expect_rejected(${SIM} "usage" --clock-mhz nan)         # non-finite
expect_rejected(${SIM} "usage" --clock-mhz 1e99)        # out of range
expect_rejected(${SIM} "usage" --json=yes)              # boolean takes no value
expect_rejected(${SIM} "usage" --fault-kill 2.0)
expect_rejected(${SIM} "usage" --fault-seed -1)
expect_rejected(${SIM} "mutually exclusive" --faults f.json --fault-kill 0.5)
expect_rejected(${SIM} "usage" --isa)                   # missing value
expect_rejected(${SIM} "usage" --isa avx9)              # not an ISA name
expect_rejected(${SIM} "usage" -h)                      # help goes to stderr, exit 2
expect_rejected(${SIM} "requires --trace" --trace-flows)  # flows need a file

# --- mocha_sim: nextbest compares default substrates at batch 1 ---
foreach(flag --batch=4 --sram-kib=64 --pe=4 --clock-mhz=100 --faults=f.json
        --fault-kill=0.3 --plan --dot=g.dot --critpath-out=cp.json)
  string(REGEX REPLACE "=.*" "" name "${flag}")
  expect_rejected(${SIM} "${name} does not apply to --accelerator nextbest"
                  ${flag} --accelerator nextbest)
endforeach()
expect_rejected(${SIM} "does not apply" --accelerator nextbest --batch 4)

# --- mocha_sim: critical-path mode ---
expect_rejected(${SIM} "usage" --critpath-out)          # missing value
expect_rejected(${SIM} "usage" --what-if)               # missing value
expect_rejected(${SIM} "usage" --what-if dram+0 --critpath-out cp.json)  # add must be positive
expect_rejected(${SIM} "usage" --what-if pe_groups*0 --critpath-out cp.json)  # zero scale
expect_rejected(${SIM} "usage" --what-if bogus/2 --critpath-out cp.json)  # unknown task kind
expect_rejected(${SIM} "usage" --what-if dram_channels+4294967297 --critpath-out cp.json)  # beyond int
expect_rejected(${SIM} "usage" --what-if compute/1e-7 --critpath-out cp.json)  # named as /0
expect_rejected(${SIM} "usage" --top-k 0 --critpath-out cp.json)
expect_rejected(${SIM} "requires --critpath-out" --what-if unbounded)
expect_rejected(${SIM} "requires --critpath-out" --top-k 3)

# --- mocha_sim: validated values past the parser ---
expect_rejected(${SIM} "unknown network" --network bogus)
expect_rejected(${SIM} "unknown objective" --objective speed)
expect_rejected(${SIM} "unknown accelerator" --accelerator tpu)
expect_rejected(${SIM} "cannot read" --faults ${CMAKE_CURRENT_LIST_DIR}/no-such-file.json)
expect_rejected(${SIM} "cannot write" --network lenet5
                --dot ${CMAKE_CURRENT_LIST_DIR}/no-such-dir/g.dot)
# A wrong-typed fault spec value is a bad spec, not the healthy default.
set(bad_faults ${CMAKE_CURRENT_BINARY_DIR}/cli_errors_bad_faults.json)
file(WRITE ${bad_faults}
     [=[{"dead_codec_units": "2", "codec_bit_flip_rate": "0.5"}]=])
expect_rejected(${SIM} "bad fault spec" --network lenet5 --faults ${bad_faults})

# --- mocha_serve: fleet flag parsing ---
expect_rejected(${SERVE} "usage" --frobnicate)
expect_rejected(${SERVE} "unknown network" --network bogus)
expect_rejected(${SERVE} "usage" --shards)               # missing value
expect_rejected(${SERVE} "usage" --shards 0)             # zero-width fleet
expect_rejected(${SERVE} "usage" --shards 65)            # above range
expect_rejected(${SERVE} "usage" --shards two)           # not a number
expect_rejected(${SERVE} "unknown flag: --batch-max" --batch-max 4)
expect_rejected(${SERVE} "usage" --hedge-ms 0)
expect_rejected(${SERVE} "usage" --tenants 0)
expect_rejected(${SERVE} "usage" --canary-period-ms 0)
expect_rejected(${SERVE} "usage" --stall-ms 0)
expect_rejected(${SERVE} "usage" --kill-after 1.5)       # fraction of the run
expect_rejected(${SERVE} "usage" --no-hedge=yes)         # boolean takes no value
expect_rejected(${SERVE} "usage" --replicas)             # missing value
expect_rejected(${SERVE} "usage" --replicas 0)           # empty replica set
expect_rejected(${SERVE} "usage" --replicas 65)          # above range
expect_rejected(${SERVE} "usage" --models 0)
expect_rejected(${SERVE} "usage" --availability-min 1.5) # a fraction
expect_rejected(${SERVE} "usage" --isa avx9)             # not an ISA name

# --- mocha_serve: cross-flag validation ---
expect_rejected(${SERVE} "out of range" --kill-shard 2 --shards 2)
expect_rejected(${SERVE} "out of range" --kill-shard 1)  # default --shards 1
expect_rejected(${SERVE} "unknown flag: --fleet-faulty" --fleet-faulty 1)
expect_rejected(${SERVE} "unknown flag: --heal-shard-after" --heal-shard-after 0.5)
expect_rejected(${SERVE} "must be > --kill-after" --shards 2 --kill-shard 0
                --kill-after 0.5 --heal-after 0.25)
expect_rejected(${SERVE} "needs a fault to apply" --kill-after 0.2 --heal-after 0.7)
expect_rejected(${SERVE} "needs --shards" --hedge-compare)
expect_rejected(${SERVE} "contradictory" --shards 2 --hedge-compare --no-hedge)
expect_rejected(${SERVE} "mutually exclusive" --faults f.json --fault-kill 0.5)
expect_rejected(${SERVE} "exceeds" --replicas 3 --shards 2)

# --- fig_degradation (E15 harness) ---
expect_rejected(${FIG} "usage" --bogus)

message(STATUS "all malformed command lines rejected with exit 2")
