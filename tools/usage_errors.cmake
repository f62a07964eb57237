# Usage errors fgpu-run must report before it runs anything: exit 2 with a
# message naming the offending flag or path.
#   cmake -DFGPU_RUN=build/tools/fgpu-run -DCASE=dse -P tools/usage_errors.cmake
# CASE=dse, list or dump-asm: each flag that only the suite run reads, given
# beside --dse, --list or --dump-asm (each replaces that run); no file may be
# written. CASE=output: an unwritable output path (a missing directory, an
# existing directory) beside a writable one; the suite must not have run (no
# summary line on stdout) and the writable path must not have been created.
set(out "${CMAKE_CURRENT_BINARY_DIR}/usage_errors_${CASE}")
file(REMOVE_RECURSE "${out}")
file(MAKE_DIRECTORY "${out}")
set(failures "")
set(replacing_dse --device=all --dse-exact=1 --dse=d.json)
set(replacing_list --list)
set(replacing_dump-asm --dump-asm=vecadd)
if(DEFINED replacing_${CASE})
  foreach(arg --json=s.json --trace=t.json --profile=p.json --hlsprof=h.json
              --memprof=m.json --remarks=r.json --compare=c.json --predict
              --hotspots=3 --mem-hotspots=3 --remark-hotspots=3 --repeat=2)
    string(REGEX REPLACE "=.*" "" flag "${arg}")
    execute_process(COMMAND "${FGPU_RUN}" --filter=^vecadd$ ${replacing_${CASE}} "${arg}"
                    WORKING_DIRECTORY "${out}" RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    string(FIND "${err}" "${flag} has no effect with --${CASE}" named)
    file(GLOB written "${out}/*")
    if(NOT rc STREQUAL "2" OR named EQUAL -1 OR written)
      list(APPEND failures "  --${CASE} with ${arg}: exit '${rc}', stderr '${err}', wrote '${written}'")
    endif()
    if(written)
      file(REMOVE ${written})
    endif()
  endforeach()
elseif(CASE STREQUAL "output")
  file(MAKE_DIRECTORY "${out}/adir")
  foreach(bad missing/p.json adir)
    execute_process(COMMAND "${FGPU_RUN}" --filter=^vecadd$ --json=ok.json --profile=${bad}
                    WORKING_DIRECTORY "${out}" RESULT_VARIABLE rc OUTPUT_VARIABLE stdout
                    ERROR_VARIABLE err)
    string(FIND "${err}" "'${bad}'" named)
    string(FIND "${stdout}" "benchmarks in" ran)
    file(GLOB written "${out}/*.json")
    if(NOT rc STREQUAL "2" OR named EQUAL -1 OR NOT ran EQUAL -1 OR written)
      list(APPEND failures "  --profile=${bad}: exit '${rc}', stdout '${stdout}', "
                           "stderr '${err}', wrote '${written}'")
    endif()
    if(written)
      file(REMOVE ${written})
    endif()
  endforeach()
else()
  message(FATAL_ERROR "CASE must be dse, list, dump-asm or output")
endif()
if(failures)
  list(JOIN failures "\n" text)
  message(FATAL_ERROR "fgpu-run ran or wrote despite a usage error:\n${text}")
endif()
