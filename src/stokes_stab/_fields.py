"""Numpy source of the fields of the builtin cases, as sympy's lambdify
prints it. Generated by tools/write_fields.py; do not edit.
"""

from numpy import exp


def smooth_square_f_0(x, y):
    return -12*x**4*y + 6*x**4 + 24*x**3*y - 12*x**3 - 24*x**2*y**3 + 36*x**2*y**2 - 24*x**2*y + 9*x**2 + 24*x*y**3 - 36*x*y**2 + 12*x*y - 4*y**3 + 6*y**2 - 2*y


def smooth_square_f_1(x, y):
    return 24*x**3*y**2 - 24*x**3*y + 4*x**3 - 36*x**2*y**2 + 36*x**2*y - 6*x**2 + 12*x*y**4 - 24*x*y**3 + 24*x*y**2 - 12*x*y + 2*x - 6*y**4 + 12*y**3 - 3*y**2


def smooth_square_u_0(x, y):
    return 4*x**4*y**3 - 6*x**4*y**2 + 2*x**4*y - 8*x**3*y**3 + 12*x**3*y**2 - 4*x**3*y + 4*x**2*y**3 - 6*x**2*y**2 + 2*x**2*y


def smooth_square_u_1(x, y):
    return -4*x**3*y**4 + 8*x**3*y**3 - 4*x**3*y**2 + 6*x**2*y**4 - 12*x**2*y**3 + 6*x**2*y**2 - 2*x*y**4 + 4*x*y**3 - 2*x*y**2


def smooth_square_grad_u_0_0(x, y):
    return 16*x**3*y**3 - 24*x**3*y**2 + 8*x**3*y - 24*x**2*y**3 + 36*x**2*y**2 - 12*x**2*y + 8*x*y**3 - 12*x*y**2 + 4*x*y


def smooth_square_grad_u_0_1(x, y):
    return 12*x**4*y**2 - 12*x**4*y + 2*x**4 - 24*x**3*y**2 + 24*x**3*y - 4*x**3 + 12*x**2*y**2 - 12*x**2*y + 2*x**2


def smooth_square_grad_u_1_0(x, y):
    return -12*x**2*y**4 + 24*x**2*y**3 - 12*x**2*y**2 + 12*x*y**4 - 24*x*y**3 + 12*x*y**2 - 2*y**4 + 4*y**3 - 2*y**2


def smooth_square_grad_u_1_1(x, y):
    return -16*x**3*y**3 + 24*x**3*y**2 - 8*x**3*y + 24*x**2*y**3 - 36*x**2*y**2 + 12*x**2*y - 8*x*y**3 + 12*x*y**2 - 4*x*y


def smooth_square_p(x, y):
    return x**3 + y**3 - 1/2


def neumann_strip_f_0(x, y):
    return -12*x**4*y + 6*x**4 + 24*x**3*y - 12*x**3 - 24*x**2*y**3 + 36*x**2*y**2 - 24*x**2*y + 9*x**2 + 24*x*y**3 - 36*x*y**2 + 12*x*y - 4*y**3 + 6*y**2 - 2*y


def neumann_strip_f_1(x, y):
    return 24*x**3*y**2 - 24*x**3*y + 4*x**3 - 36*x**2*y**2 + 36*x**2*y - 6*x**2 + 12*x*y**4 - 24*x*y**3 + 24*x*y**2 - 12*x*y + 2*x - 6*y**4 + 12*y**3 - 3*y**2


def neumann_strip_u_0(x, y):
    return 4*x**4*y**3 - 6*x**4*y**2 + 2*x**4*y - 8*x**3*y**3 + 12*x**3*y**2 - 4*x**3*y + 4*x**2*y**3 - 6*x**2*y**2 + 2*x**2*y


def neumann_strip_u_1(x, y):
    return -4*x**3*y**4 + 8*x**3*y**3 - 4*x**3*y**2 + 6*x**2*y**4 - 12*x**2*y**3 + 6*x**2*y**2 - 2*x*y**4 + 4*x*y**3 - 2*x*y**2


def neumann_strip_grad_u_0_0(x, y):
    return 16*x**3*y**3 - 24*x**3*y**2 + 8*x**3*y - 24*x**2*y**3 + 36*x**2*y**2 - 12*x**2*y + 8*x*y**3 - 12*x*y**2 + 4*x*y


def neumann_strip_grad_u_0_1(x, y):
    return 12*x**4*y**2 - 12*x**4*y + 2*x**4 - 24*x**3*y**2 + 24*x**3*y - 4*x**3 + 12*x**2*y**2 - 12*x**2*y + 2*x**2


def neumann_strip_grad_u_1_0(x, y):
    return -12*x**2*y**4 + 24*x**2*y**3 - 12*x**2*y**2 + 12*x*y**4 - 24*x*y**3 + 12*x*y**2 - 2*y**4 + 4*y**3 - 2*y**2


def neumann_strip_grad_u_1_1(x, y):
    return -16*x**3*y**3 + 24*x**3*y**2 - 8*x**3*y + 24*x**2*y**3 - 36*x**2*y**2 + 12*x**2*y - 8*x*y**3 + 12*x*y**2 - 4*x*y


def neumann_strip_p(x, y):
    return x**3 + y**3 - 1/2


def neumann_strip_t_0(x, y):
    return 16*x**3*y**3 - 24*x**3*y**2 + 8*x**3*y - x**3 - 24*x**2*y**3 + 36*x**2*y**2 - 12*x**2*y + 8*x*y**3 - 12*x*y**2 + 4*x*y - y**3 + 1/2


def neumann_strip_t_1(x, y):
    return 6*x**4*y**2 - 6*x**4*y + x**4 - 12*x**3*y**2 + 12*x**3*y - 2*x**3 - 6*x**2*y**4 + 12*x**2*y**3 - 6*x**2*y + x**2 + 6*x*y**4 - 12*x*y**3 + 6*x*y**2 - y**4 + 2*y**3 - y**2


def nonzero_g_f_0(x, y):
    return -x**3 + x**2 - 9*x*y**2 + 8*x*y + (7/2)*y**2 - 2*y


def nonzero_g_f_1(x, y):
    return -9*x**2*y + (7/2)*x**2 + 8*x*y - 2*x - y**3 + y**2


def nonzero_g_u_0(x, y):
    return x**3*y**2 - x**3*y - x**2*y**2 + x**2*y


def nonzero_g_u_1(x, y):
    return x**2*y**3 - x**2*y**2 - x*y**3 + x*y**2


def nonzero_g_grad_u_0_0(x, y):
    return 3*x**2*y**2 - 3*x**2*y - 2*x*y**2 + 2*x*y


def nonzero_g_grad_u_0_1(x, y):
    return 2*x**3*y - x**3 - 2*x**2*y + x**2


def nonzero_g_grad_u_1_0(x, y):
    return 2*x*y**3 - 2*x*y**2 - y**3 + y**2


def nonzero_g_grad_u_1_1(x, y):
    return 3*x**2*y**2 - 2*x**2*y - 3*x*y**2 + 2*x*y


def nonzero_g_p(x, y):
    return x*y - 1/4


def nonzero_g_g(x, y):
    return x*y*(6*x*y - 5*x - 5*y + 4)


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
