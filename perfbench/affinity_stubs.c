/* CPU affinity of the calling thread, for keeping the load generator and
   the servers on separate CPUs.  Linux only; elsewhere a no-op that
   reports failure. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/memory.h>

#ifdef __linux__
#include <sched.h>
#include <unistd.h>
#endif

value perfbench_set_affinity(value cpus)
{
  CAMLparam1(cpus);
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (value l = cpus; l != Val_emptylist; l = Field(l, 1)) {
    long c = Long_val(Field(l, 0));
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  CAMLreturn(Val_bool(sched_setaffinity(0, sizeof(set), &set) == 0));
#else
  CAMLreturn(Val_false);
#endif
}

value perfbench_online_cpus(value unit)
{
  CAMLparam1(unit);
#ifdef __linux__
  CAMLreturn(Val_long(sysconf(_SC_NPROCESSORS_ONLN)));
#else
  CAMLreturn(Val_long(1));
#endif
}

/* Fork a process that pins itself to [cpu] at SCHED_IDLE priority and
   spins until killed (or until the forking thread exits).  Any other
   runnable thread preempts it at once, so it only fills time the CPU
   would otherwise spend halted; a halted virtual CPU takes tens of
   microseconds to wake.  Returns the pid, or -1. */
#ifdef __linux__
#include <signal.h>
#include <sys/prctl.h>
#endif

value perfbench_spin_idle(value cpu)
{
  CAMLparam1(cpu);
#ifdef __linux__
  long c = Long_val(cpu);
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid == 0) {
    cpu_set_t set;
    struct sched_param sp = { 0 };
    volatile unsigned long spins = 0;
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(0);
    CPU_ZERO(&set);
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) _exit(1);
    if (sched_setscheduler(0, SCHED_IDLE, &sp) != 0) _exit(1);
    for (;;) spins++;
  }
  CAMLreturn(Val_long(pid));
#else
  CAMLreturn(Val_long(-1));
#endif
}
