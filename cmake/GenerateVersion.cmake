# Script-mode helper (cmake -P) that stamps the current git state into
# a generated header, so dwbench can print an honest provenance line
# without shelling out at run time.
#
# Invoked at build time by the dewrite_version custom target with:
#   -DVERSION_SRC_DIR=<repo root> -DVERSION_OUT=<path to version_info.hh>
#
# The header is rewritten only when its content changes, so incremental
# builds do not recompile after every `git status` no-op. When git
# (or the .git directory) is unavailable the sha degrades to "unknown"
# and the dirty flag to true — a report that cannot prove its origin
# must not claim a clean one.

set(GIT_SHA "unknown")
set(GIT_DIRTY 1)

find_package(Git QUIET)
if(GIT_FOUND)
    execute_process(
        COMMAND ${GIT_EXECUTABLE} -C ${VERSION_SRC_DIR} rev-parse HEAD
        OUTPUT_VARIABLE sha
        OUTPUT_STRIP_TRAILING_WHITESPACE
        ERROR_QUIET
        RESULT_VARIABLE sha_rc)
    if(sha_rc EQUAL 0)
        set(GIT_SHA ${sha})
        execute_process(
            COMMAND ${GIT_EXECUTABLE} -C ${VERSION_SRC_DIR}
                    status --porcelain
            OUTPUT_VARIABLE status
            ERROR_QUIET
            RESULT_VARIABLE status_rc)
        if(status_rc EQUAL 0 AND status STREQUAL "")
            set(GIT_DIRTY 0)
        endif()
    endif()
endif()

if(GIT_DIRTY)
    set(GIT_DIRTY_BOOL "true")
else()
    set(GIT_DIRTY_BOOL "false")
endif()

set(content "// Generated by cmake/GenerateVersion.cmake — do not edit.
#ifndef DEWRITE_OBS_VERSION_INFO_HH
#define DEWRITE_OBS_VERSION_INFO_HH

namespace dewrite::obs {

inline constexpr const char *kGitSha = \"${GIT_SHA}\";
inline constexpr bool kGitDirty = ${GIT_DIRTY_BOOL};

} // namespace dewrite::obs

#endif // DEWRITE_OBS_VERSION_INFO_HH
")

if(EXISTS ${VERSION_OUT})
    file(READ ${VERSION_OUT} existing)
else()
    set(existing "")
endif()
if(NOT content STREQUAL existing)
    file(WRITE ${VERSION_OUT} "${content}")
endif()
