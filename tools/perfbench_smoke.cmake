# ctest script for the benchmark's smoke mode (perfbench/README.md): every
# workload runs for a moment, untraced and traced, and each report must
# exit 0 and say "correct":true — every output check of every operation
# passed. Invoked by the `perfbench_smoke` test as
#   cmake -DPERFBENCH=<mocha_perfbench> -P perfbench_smoke.cmake

foreach(workload dse exec serve)
  foreach(trace 0 1)
    execute_process(COMMAND ${PERFBENCH} --workload ${workload} --seed 1
                            --seconds 1 --trace ${trace} --smoke
                    RESULT_VARIABLE code
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT code EQUAL 0 OR NOT out MATCHES "\"correct\":true")
      message(FATAL_ERROR "${workload} --trace ${trace}: exit '${code}'\n"
                          "stdout:\n${out}\nstderr:\n${err}")
    endif()
  endforeach()
endforeach()

message(STATUS "perfbench smoke: dse, exec and serve correct at --trace 0 and 1")
