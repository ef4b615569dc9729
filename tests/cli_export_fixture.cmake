# campaign_cli's CSV export of the defense matrix on both channels,
# compared byte for byte with the committed fixture: every column,
# guestCycles, cycles, committed and squashed included, so a change
# that moves any cell's guest cycles fails here.
#   cmake -DCLI=path/to/campaign_cli -DOUT=out.csv -DFIXTURE=f.csv -P <this file>
execute_process(COMMAND ${CLI} --serial --channels fr,pp --csv ${OUT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign_cli exited ${rc}\n${out}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${FIXTURE}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${FIXTURE}")
endif()
