// measure — runs one program and reports what it cost.
//
//   measure FD PROGRAM [ARG...]
//
// Runs PROGRAM with stdin, stdout and stderr inherited, waits for it, and
// writes one line to file descriptor FD:
//
//   <exit code> <wall ns> <user + system CPU us> <peak RSS KiB>
//
// (exit code 128 + N when signal N ended it). The wall time runs from just
// before fork to the end of wait4.
//
// Why a separate process: Linux carries the resident high-water mark of
// the image a process replaces on exec into its own ru_maxrss, so a
// program spawned straight from the benchmark harness would report at
// least the harness's size. Forked from this small process, it reports
// its own. Returns 0 once the line is written, 2 on a usage or spawn
// error.

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace {

long long NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

}  // namespace

int main(int argc, char** argv) {
  char* end = nullptr;
  long fd = argc >= 3 ? std::strtol(argv[1], &end, 10) : -1;
  if (argc < 3 || end == argv[1] || *end != '\0' || fd < 0) {
    std::fputs("usage: measure FD PROGRAM [ARG...]\n", stderr);
    return 2;
  }
  const long long start = NowNs();
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("measure: fork");
    return 2;
  }
  if (pid == 0) {
    close(static_cast<int>(fd));
    execv(argv[2], argv + 2);
    std::perror("measure: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("measure: wait4");
      return 2;
    }
  }
  const long long wall = NowNs() - start;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  const long long cpu_us =
      (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1000000LL +
      usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
  std::FILE* out = fdopen(static_cast<int>(fd), "w");
  if (out == nullptr ||
      std::fprintf(out, "%d %lld %lld %ld\n", code, wall, cpu_us,
                   usage.ru_maxrss) < 0 ||
      std::fclose(out) != 0) {
    std::perror("measure: report");
    return 2;
  }
  return 0;
}
