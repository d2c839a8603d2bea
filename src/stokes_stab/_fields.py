"""Numpy source of the fields of the builtin cases, as sympy's lambdify
prints it. Generated by tools/write_fields.py; do not edit.
"""

from numpy import exp


def smooth_square_f_0(x, y):
    return x*(x*(x*(x*(6 - 12*y) + 24*y - 12) + y*(y*(36 - 24*y) - 24) + 9) + y*(y*(24*y - 36) + 12)) + y*(y*(6 - 4*y) - 2)


def smooth_square_f_1(x, y):
    return x*(x*(x*(y*(24*y - 24) + 4) + y*(36 - 36*y) - 6) + y*(y*(y*(12*y - 24) + 24) - 12) + 2) + y**2*(y*(12 - 6*y) - 3)


def smooth_square_u_0(x, y):
    return x**2*(x*(x*y*(y*(4*y - 6) + 2) + y*(y*(12 - 8*y) - 4)) + y*(y*(4*y - 6) + 2))


def smooth_square_u_1(x, y):
    return x*(x*(x*y**2*(y*(8 - 4*y) - 4) + y**2*(y*(6*y - 12) + 6)) + y**2*(y*(4 - 2*y) - 2))


def smooth_square_grad_u_0_0(x, y):
    return x*(x*(x*y*(y*(16*y - 24) + 8) + y*(y*(36 - 24*y) - 12)) + y*(y*(8*y - 12) + 4))


def smooth_square_grad_u_0_1(x, y):
    return x**2*(x*(x*(y*(12*y - 12) + 2) + y*(24 - 24*y) - 4) + y*(12*y - 12) + 2)


def smooth_square_grad_u_1_0(x, y):
    return x*(x*y**2*(y*(24 - 12*y) - 12) + y**2*(y*(12*y - 24) + 12)) + y**2*(y*(4 - 2*y) - 2)


def smooth_square_grad_u_1_1(x, y):
    return x*(x*(x*y*(y*(24 - 16*y) - 8) + y*(y*(24*y - 36) + 12)) + y*(y*(12 - 8*y) - 4))


def smooth_square_p(x, y):
    return x**3 + y**3 - 1/2


def neumann_strip_f_0(x, y):
    return x*(x*(x*(x*(6 - 12*y) + 24*y - 12) + y*(y*(36 - 24*y) - 24) + 9) + y*(y*(24*y - 36) + 12)) + y*(y*(6 - 4*y) - 2)


def neumann_strip_f_1(x, y):
    return x*(x*(x*(y*(24*y - 24) + 4) + y*(36 - 36*y) - 6) + y*(y*(y*(12*y - 24) + 24) - 12) + 2) + y**2*(y*(12 - 6*y) - 3)


def neumann_strip_u_0(x, y):
    return x**2*(x*(x*y*(y*(4*y - 6) + 2) + y*(y*(12 - 8*y) - 4)) + y*(y*(4*y - 6) + 2))


def neumann_strip_u_1(x, y):
    return x*(x*(x*y**2*(y*(8 - 4*y) - 4) + y**2*(y*(6*y - 12) + 6)) + y**2*(y*(4 - 2*y) - 2))


def neumann_strip_grad_u_0_0(x, y):
    return x*(x*(x*y*(y*(16*y - 24) + 8) + y*(y*(36 - 24*y) - 12)) + y*(y*(8*y - 12) + 4))


def neumann_strip_grad_u_0_1(x, y):
    return x**2*(x*(x*(y*(12*y - 12) + 2) + y*(24 - 24*y) - 4) + y*(12*y - 12) + 2)


def neumann_strip_grad_u_1_0(x, y):
    return x*(x*y**2*(y*(24 - 12*y) - 12) + y**2*(y*(12*y - 24) + 12)) + y**2*(y*(4 - 2*y) - 2)


def neumann_strip_grad_u_1_1(x, y):
    return x*(x*(x*y*(y*(24 - 16*y) - 8) + y*(y*(24*y - 36) + 12)) + y*(y*(12 - 8*y) - 4))


def neumann_strip_p(x, y):
    return x**3 + y**3 - 1/2


def neumann_strip_t_0(x, y):
    return x*(x*(x*(y*(y*(16*y - 24) + 8) - 1) + y*(y*(36 - 24*y) - 12)) + y*(y*(8*y - 12) + 4)) - y**3 + 1/2


def neumann_strip_t_1(x, y):
    return x*(x*(x*(x*(y*(6*y - 6) + 1) + y*(12 - 12*y) - 2) + y*(y**2*(12 - 6*y) - 6) + 1) + y**2*(y*(6*y - 12) + 6)) + y**2*(y*(2 - y) - 1)


def nonzero_g_f_0(x, y):
    return x*(x*(1 - x) + y*(8 - 9*y)) + y*((7/2)*y - 2)


def nonzero_g_f_1(x, y):
    return x*(x*(7/2 - 9*y) + 8*y - 2) + y**2*(1 - y)


def nonzero_g_u_0(x, y):
    return x**2*(x*y*(y - 1) + y*(1 - y))


def nonzero_g_u_1(x, y):
    return x*(x*y**2*(y - 1) + y**2*(1 - y))


def nonzero_g_grad_u_0_0(x, y):
    return x*(x*y*(3*y - 3) + y*(2 - 2*y))


def nonzero_g_grad_u_0_1(x, y):
    return x**2*(x*(2*y - 1) - 2*y + 1)


def nonzero_g_grad_u_1_0(x, y):
    return x*y**2*(2*y - 2) + y**2*(1 - y)


def nonzero_g_grad_u_1_1(x, y):
    return x*(x*y*(3*y - 2) + y*(2 - 3*y))


def nonzero_g_p(x, y):
    return x*y - 1/4


def nonzero_g_g(x, y):
    return x*(x*y*(6*y - 5) + y*(4 - 5*y))


def lshape_peak_f_0(x, y):
    return 100*exp(-400*(x + 2/25)**2 - 400*(y + 2/25)**2)


def lshape_peak_f_1(x, y):
    return -100*exp(-400*(x + 2/25)**2 - 400*(y + 2/25)**2)


FIELDS = {'SMOOTH_SQUARE': {'f': (smooth_square_f_0, smooth_square_f_1),
                            'u': (smooth_square_u_0, smooth_square_u_1),
                            'grad_u': ((smooth_square_grad_u_0_0,
                                        smooth_square_grad_u_0_1),
                                       (smooth_square_grad_u_1_0,
                                        smooth_square_grad_u_1_1)),
                            'p': smooth_square_p,
                            'g': None},
          'NEUMANN_STRIP': {'f': (neumann_strip_f_0, neumann_strip_f_1),
                            'u': (neumann_strip_u_0, neumann_strip_u_1),
                            'grad_u': ((neumann_strip_grad_u_0_0,
                                        neumann_strip_grad_u_0_1),
                                       (neumann_strip_grad_u_1_0,
                                        neumann_strip_grad_u_1_1)),
                            'p': neumann_strip_p,
                            'g': None,
                            't': (neumann_strip_t_0, neumann_strip_t_1)},
          'NONZERO_G': {'f': (nonzero_g_f_0, nonzero_g_f_1),
                        'u': (nonzero_g_u_0, nonzero_g_u_1),
                        'grad_u': ((nonzero_g_grad_u_0_0,
                                    nonzero_g_grad_u_0_1),
                                   (nonzero_g_grad_u_1_0,
                                    nonzero_g_grad_u_1_1)),
                        'p': nonzero_g_p,
                        'g': nonzero_g_g},
          'LSHAPE_PEAK': {'f': (lshape_peak_f_0, lshape_peak_f_1)}}
