"""``run_child``'s contract: the fresh interpreter imports this checkout's
gridloss, runs one BLAS thread, and caps its address space only when asked."""

import resource

import gridloss

from child import run_child

_READ = ("import os, resource, gridloss\n"
         "print(gridloss.__file__)\n"
         "print(*(os.environ[name] for name in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))\n"
         "print(*resource.getrlimit(resource.RLIMIT_AS))\n")


def test_imports_this_checkout_with_one_blas_thread():
    path, threads, _ = run_child(_READ).stdout.splitlines()
    assert path == gridloss.__file__
    assert threads == "1 1 1"


def test_keeps_the_address_space_of_its_parent_by_default():
    assert run_child(_READ).stdout.splitlines()[-1] == " ".join(map(str, resource.getrlimit(resource.RLIMIT_AS)))


def test_caps_the_address_space_before_the_code_runs():
    assert run_child(_READ, address_space=2**31).stdout.splitlines()[-1] == f"{2**31} {2**31}"
