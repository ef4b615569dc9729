# A campaign_cli export, compared byte for byte with a committed
# fixture: every column, guestCycles, cycles, committed and squashed
# included, so a change that moves any cell's guest cycles fails here.
# ARGS holds the campaign_cli arguments before the export flag,
# space-separated; the fixture's extension names that flag (.csv
# exports with --csv, .jsonl with --jsonl).
#   cmake -DCLI=path/to/campaign_cli -DARGS="--serial --channels fr,pp"
#         -DOUT=out.csv -DFIXTURE=f.csv -P <this file>
separate_arguments(cli_args UNIX_COMMAND "${ARGS}")
get_filename_component(format ${FIXTURE} LAST_EXT)
string(SUBSTRING ${format} 1 -1 format)
execute_process(COMMAND ${CLI} ${cli_args} --${format} ${OUT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign_cli exited ${rc}\n${out}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${FIXTURE}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${FIXTURE}")
endif()
