# campaign_cli's sharded round trip: two shard runs re-joined by
# `campaign_cli merge` export the same JSONL bytes as an unsharded
# run of the same spec.
#   cmake -DCLI=path/to/campaign_cli -DDIR=scratch -P <this file>
set(spec --serial --variants spectre-v1,meltdown --perm-lat 10,30)
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
function(step)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit ${rc}: ${ARGN}\n${out}")
  endif()
endfunction()
step(${CLI} ${spec} --shard 0/2 --shard-report ${DIR}/s0.json)
step(${CLI} ${spec} --shard 1/2 --shard-report ${DIR}/s1.json)
step(${CLI} merge ${DIR}/s0.json ${DIR}/s1.json --jsonl ${DIR}/m.jsonl)
step(${CLI} ${spec} --jsonl ${DIR}/full.jsonl)
step(${CMAKE_COMMAND} -E compare_files ${DIR}/m.jsonl ${DIR}/full.jsonl)
