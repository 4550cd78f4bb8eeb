/* PC sampler, loaded with LD_PRELOAD: every SAMPLE_US microseconds of
 * wall time (default 200) a CLOCK_MONOTONIC timer raises SIGPROF and the
 * handler records the interrupted instruction pointer. At exit the file
 * SAMPLE_OUT (default sample.out) gets the file-backed mappings of
 * /proc/self/maps, then one hex PC per line; symbolize.py reads it.
 *
 *   cc -O2 -shared -fPIC -o sampler.so sampler.c -lrt
 *   SAMPLE_OUT=run.pcs LD_PRELOAD=$PWD/sampler.so prog args...
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>

#define CAP (1 << 22)
static unsigned long pcs[CAP];
static unsigned long n;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    unsigned long i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
    if (i < CAP) pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    timer_t t;
    if (timer_create(CLOCK_MONOTONIC, &ev, &t) != 0) return;
    long us = getenv("SAMPLE_US") ? atol(getenv("SAMPLE_US")) : 200;
    struct itimerspec its = {{us / 1000000, us % 1000000 * 1000}, {us / 1000000, us % 1000000 * 1000}};
    timer_settime(t, 0, &its, NULL);
}

__attribute__((destructor)) static void stop(void) {
    signal(SIGPROF, SIG_IGN);
    const char *path = getenv("SAMPLE_OUT") ? getenv("SAMPLE_OUT") : "sample.out";
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    char line[8192];
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps))
        if (strchr(line, '/')) fprintf(out, "map %s", line);
    unsigned long m = n < CAP ? n : CAP;
    for (unsigned long i = 0; i < m; i++) fprintf(out, "%lx\n", pcs[i]);
    fclose(maps);
    fclose(out);
}
