"""Golden corpus for the element-expression grammar.

One grammar in ``base_rings`` reads every expression the package accepts; its
algebras give the nodes their meaning.  This corpus pins the five entry points
that use it: ring descriptors (``make_ring``: ff and uq moduli, ``mod=``
generators), ``evaluate``, ``parse_eisenstein``, ``embed_expr`` and
``parse_poly_x``.  Each accepted input must print exactly the recorded
canonical value; each rejected input (recorded as ``!ErrorName``) must raise
exactly that error type.  The inputs come from the README, the verify checks,
the benchmark workloads and the other test modules.

The second half checks spellings the grammar accepts beyond the recorded
corpus (juxtaposition, ``x^1/2``, products of the unknown) against their
explicit forms.
"""

from functools import lru_cache

import pytest

import wittforge.base_rings as br
import wittforge.cli_io as cli
import wittforge.witt_ramified as rw
from wittforge.errors import SpecParseError

RINGS = {
    'F3': 'ff p=3 e=1',
    'F9': 'ff p=3 e=2',
    'F4': 'ff p=2 e=2 modulus=u^2+u+1',
    'X3': 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true',
    'X3p': 'frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=0 laurent=false',
    'XY3': 'frac base=(ff p=3 e=1) vars=x,y depth_p=2 depth_2=1 laurent=true',
    'X4': 'frac base=(ff p=2 e=2 modulus=u^2+u+1) vars=x depth_p=1 depth_2=0 laurent=false',
    'X5': 'frac base=(ff p=5 e=1) vars=x depth_p=0 depth_2=0 laurent=false',
    'XYq': 'frac base=(ff p=3 e=1) vars=x,y depth_p=0 depth_2=0 laurent=false mod=x^2,y^3',
    'X1009': 'frac base=(ff p=1009 e=2) vars=x depth_p=0 depth_2=1 laurent=true',
    'X6': 'frac base=(ff p=3 e=1) vars=x depth_p=6 depth_2=0 laurent=true',
    'X10': 'frac base=(ff p=3 e=1) vars=x depth_p=10 depth_2=1 laurent=true',
    'T3': 'uq base=(ff p=3 e=1) var=T modulus=T^2+1',
    'T9': 'uq base=(ff p=3 e=2) var=T modulus=T^2+2*T+2',
    'T2': 'uq base=(ff p=3 e=1) var=T modulus=T^2',
    'U8': 'uq base=(ff p=2 e=1) var=u modulus=u^8',
    'T5': 'uq base=(ff p=3 e=1) var=T modulus=T^5+2*T^2+T+1',
    'T43': 'uq base=(ff p=2 e=2) var=T modulus=T^3+u*T+1',
    'T33': 'uq base=(ff p=3 e=1) var=T modulus=T^3-T',
    'T27': 'uq base=(ff p=3 e=3) var=T modulus=T^27+T^2+2',
    'F2': 'ff p=2 e=1',
    'X2': 'frac base=(ff p=2 e=1) vars=x depth_p=2 depth_2=1 laurent=true',
    'F5': 'ff p=5 e=1',
}

BASES = {
    'b8': 'rw p=3 e=1 eis=(X^2-3) prec=8',
    'b6': 'rw p=3 e=1 eis=(X^2-3) prec=6',
    'b4': 'rw p=3 e=1 eis=(X^2-3) prec=4',
    'c6': 'rw p=2 e=1 eis=(X^3-2) prec=6',
}

# descriptor -> canonical descriptor
MAKE_RING = [
    ('ff p=5 e=1', 'ff p=5 e=1'),
    ('ff p=2 e=2', 'ff p=2 e=2 modulus=u^2+u+1'),
    ('ff p=2 e=2 modulus=u^2+u+1', 'ff p=2 e=2 modulus=u^2+u+1'),
    ('ff p=3 e=2 modulus=u^2+1', 'ff p=3 e=2 modulus=u^2+1'),
    ('ff p=3 e=2 modulus=u^2+2*u+2', 'ff p=3 e=2 modulus=u^2+2*u+2'),
    ('ff p=3 e=2 modulus=u^2-u-1', 'ff p=3 e=2 modulus=u^2+2*u+2'),
    ('ff p=3 e=2 modulus=4*u^2+1', 'ff p=3 e=2 modulus=u^2+1'),
    ('ff p=3 e=2 modulus=t^2+1', 'ff p=3 e=2 modulus=t^2+1'),
    ('ff p=3 e=2 modulus=1+u^2', 'ff p=3 e=2 modulus=u^2+1'),
    ('ff p=2 e=3 modulus=1+u+u^3', 'ff p=2 e=3 modulus=u^3+u+1'),
    ('ff p=3 e=1 modulus=u+2', 'ff p=3 e=1'),
    ('ff p=3 e=2 modulus = u^2 + 1', 'ff p=3 e=2 modulus=u^2+1'),
    ('frac base=(ff p=2 e=2 modulus=u^2+u+1) vars=x depth_p=0 depth_2=0 laurent=false',
     'frac base=(ff p=2 e=2 modulus=u^2+u+1) vars=x depth_p=0 depth_2=0 laurent=false'),
    ('frac base=(ff p=3 e=1) vars=x,y depth_p=0 depth_2=0 laurent=false mod=x^2,y^3',
     'frac base=(ff p=3 e=1) vars=x,y depth_p=0 depth_2=0 laurent=false mod=x^2,y^3'),
    ('frac base=(ff p=3 e=1) vars=x,t depth_p=0 depth_2=0 laurent=false mod=t^2',
     'frac base=(ff p=3 e=1) vars=x,t depth_p=0 depth_2=0 laurent=false mod=t^2'),
    ('frac base=(ff p=3 e=1) vars=x,y depth_p=1 depth_2=1 laurent=false mod=x^(1/3)*y,y^(1/2)',
     'frac base=(ff p=3 e=1) vars=x,y depth_p=1 depth_2=1 laurent=false mod=x^(1/3)*y,y^(1/2)'),
    ('frac base=(ff p=3 e=1) vars=x,y depth_p=0 depth_2=0 laurent=false mod=x*y',
     'frac base=(ff p=3 e=1) vars=x,y depth_p=0 depth_2=0 laurent=false mod=x*y'),
    ('uq base=(ff p=3 e=1) var=T modulus=T^2+1', 'uq base=(ff p=3 e=1) var=T modulus=T^2+1'),
    ('uq base=(ff p=3 e=2) var=T modulus=T^2+2*T+2',
     'uq base=(ff p=3 e=2 modulus=u^2+1) var=T modulus=T^2+2*T+2'),
    ('uq base=(ff p=3 e=2) var=T modulus=T^3+2*T+1',
     'uq base=(ff p=3 e=2 modulus=u^2+1) var=T modulus=T^3+2*T+1'),
    ('uq base=(ff p=3 e=1) var=T modulus=T^3-T', 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T'),
    ('uq base=(ff p=2 e=1) var=u modulus=u^8', 'uq base=(ff p=2 e=1) var=u modulus=u^8'),
    ('uq base=(ff p=3 e=1) var=T modulus=T^9', 'uq base=(ff p=3 e=1) var=T modulus=T^9'),
    ('uq base=(ff p=3 e=2 modulus=u^2+1) var=T modulus=T^2+u*T+(u+1)',
     'uq base=(ff p=3 e=2 modulus=u^2+1) var=T modulus=T^2+u*T+u+1'),
    ('uq base=(ff p=3 e=1) var=T modulus=(T+1)^3', 'uq base=(ff p=3 e=1) var=T modulus=T^3+1'),
    ('uq base=(ff p=3 e=1) var=T modulus=T^4+1', 'uq base=(ff p=3 e=1) var=T modulus=T^4+1'),
    ('uq base=(ff p=3 e=1) var=T modulus=-T^2-1', '!SpecParseError'),
    ('ff p=5 e=1 bogus=7', '!SpecParseError'),
    ('ff p=3 e=2 modulus=u^2+v', '!SpecParseError'),
    ('ff p=3 e=2 modulus=u^2', '!SpecParseError'),
    ('ff p=3 e=2 modulus=2*u^2+1', '!SpecParseError'),
    ('ff p=3 e=2 modulus=u^3+1', '!SpecParseError'),
    ('ff p=3 e=2 modulus=u^2+1 junk', '!SpecParseError'),
    ('ff p=3 e=2 modulus=', '!SpecParseError'),
    ('ff p=3 e=2 modulus=u^(1/2)+1', '!SpecParseError'),
    ('ff p=3 e=2 modulus=u^2+1)', '!SpecParseError'),
    ('frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 laurent=true mod=x^2',
     '!SpecParseError'),
    ('frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 laurent=false mod=2*x',
     '!SpecParseError'),
    ('frac base=(ff p=3 e=1) vars=x,y depth_p=0 depth_2=0 laurent=false mod=x+y',
     '!SpecParseError'),
    ('frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 laurent=false mod=x^(1/3)',
     '!LatticeError'),
    ('frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 laurent=false mod=1',
     '!SpecParseError'),
    ('frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 laurent=false mod=z',
     '!SpecParseError'),
    ('uq base=(ff p=3 e=1) var=T modulus=2*T^2+1', '!SpecParseError'),
    ('uq base=(ff p=3 e=1) var=T modulus=1', '!SpecParseError'),
    ('uq base=(ff p=3 e=1) var=T modulus=T^2+x', '!SpecParseError'),
    ('uq base=(ff p=3 e=1) var=T modulus=T^(1/2)', '!LatticeError'),
    ('uq base=(ff p=3 e=1) var=T modulus=T^600', 'uq base=(ff p=3 e=1) var=T modulus=T^600'),
    ('uq base=(ff p=3 e=1) var=T modulus=T^2+1 = 2', '!SpecParseError'),
    # the default modulus: the smallest monic irreducible of degree e
    ('ff p=2 e=3', 'ff p=2 e=3 modulus=u^3+u+1'),
    ('ff p=2 e=4', 'ff p=2 e=4 modulus=u^4+u+1'),
    ('ff p=2 e=5', 'ff p=2 e=5 modulus=u^5+u^2+1'),
    ('ff p=2 e=6', 'ff p=2 e=6 modulus=u^6+u+1'),
    ('ff p=2 e=7', 'ff p=2 e=7 modulus=u^7+u+1'),
    ('ff p=2 e=8', 'ff p=2 e=8 modulus=u^8+u^4+u^3+u+1'),
    ('ff p=2 e=10', 'ff p=2 e=10 modulus=u^10+u^3+1'),
    ('ff p=2 e=16', 'ff p=2 e=16 modulus=u^16+u^5+u^3+u+1'),
    ('ff p=2 e=20', 'ff p=2 e=20 modulus=u^20+u^3+1'),
    ('ff p=3 e=3', 'ff p=3 e=3 modulus=u^3+2*u+1'),
    ('ff p=3 e=4', 'ff p=3 e=4 modulus=u^4+u+2'),
    ('ff p=3 e=5', 'ff p=3 e=5 modulus=u^5+2*u+1'),
    ('ff p=3 e=6', 'ff p=3 e=6 modulus=u^6+u+2'),
    ('ff p=3 e=8', 'ff p=3 e=8 modulus=u^8+u^2+2'),
    ('ff p=3 e=12', 'ff p=3 e=12 modulus=u^12+u^2+2'),
    ('ff p=5 e=3', 'ff p=5 e=3 modulus=u^3+u+1'),
    ('ff p=5 e=4', 'ff p=5 e=4 modulus=u^4+2'),
    ('ff p=7 e=2', 'ff p=7 e=2 modulus=u^2+1'),
    ('ff p=7 e=3', 'ff p=7 e=3 modulus=u^3+2'),
    # constants take integer powers, the variable non-negative ones
    ('ff p=3 e=2 modulus=u^2+1^3', 'ff p=3 e=2 modulus=u^2+1'),
    ('ff p=3 e=2 modulus=u^2+0^0', 'ff p=3 e=2 modulus=u^2+1'),
    ('ff p=3 e=2 modulus=u^2+2^(1/2)', '!SpecParseError'),
    ('ff p=3 e=2 modulus=u^2+u^0', 'ff p=3 e=2 modulus=u^2+1'),
]

# (ring, expression) -> canonical element
EVALUATE = [
    ('X3', 'x^(1/3)', 'x^(1/3)'),
    ('X3', 'x^(1/9)', 'x^(1/9)'),
    ('X3', 'x^(4/9)', 'x^(4/9)'),
    ('X3', 'x^(-1)', 'x^(-1)'),
    ('X3', '(x+1)*(x-1)', 'x^2+2'),
    ('X3', '(2*x^(1/3)+1)*(1*x^(-2/3)-2)', '2*x^(1/3)+1+2*x^(-1/3)+x^(-2/3)'),
    ('X3', '(1*x^(4/3)+2)*(2*x^(-4/3)-1)', '2*x^(4/3)+x^(-4/3)'),
    ('X3', '2*x^(1/3)', '2*x^(1/3)'),
    ('X3', '1+x^3', 'x^3+1'),
    ('X3', '-x', '2*x'),
    ('X3', '--x', 'x'),
    ('X3', '-(x+1)^2', '2*x^2+x+2'),
    ('X3', 'x^0', '1'),
    ('X3', '2^3', '2'),
    ('X3', '(x^(1/3))^3', 'x'),
    ('X3', 'x^(2)', 'x^2'),
    ('X3', '0', '0'),
    ('X3', '3', '0'),
    ('X3', 'x-x', '0'),
    ('X3', 'x^(-1/3)', 'x^(-1/3)'),
    ('X3', '(1+x)^3', 'x^3+1'),
    ('X3', ' x ^ ( 1 / 3 ) + 1 ', 'x^(1/3)+1'),
    ('X3', 'x*-1', '2*x'),
    ('X3', '2*(x+1)*x', '2*x^2+2*x'),
    ('X3', 'x^(-2)*x^2', '1'),
    ('XY3', 'x*y', 'x*y'),
    ('XY3', 'x^(1/2)', 'x^(1/2)'),
    ('XY3', 'x^(-1/2)', 'x^(-1/2)'),
    ('XY3', 'y^(3/2)*x^(-1)', 'x^(-1)*y^(3/2)'),
    ('XY3', 'x^(1/18)*y^(5/6)', 'x^(1/18)*y^(5/6)'),
    ('X5', '1+x+3*x^2', '3*x^2+x+1'),
    ('X5', '4*x^2+3*x+1', '4*x^2+3*x+1'),
    ('X4', 'u*x^2', 'u*x^2'),
    ('X4', '(u+1)*x', '(u+1)*x'),
    ('X4', 'u^2', 'u+1'),
    ('X4', 'u*u+u', '1'),
    ('F9', 'u^2', '2'),
    ('F9', 'u^(-1)', '2*u'),
    ('F9', '2*u+1', '2*u+1'),
    # ff constants take the roots that exist, the smallest one: (2u+1)^2 = u
    ('F9', 'u^(1/2)', '2*u+1'),
    ('F3', '1+1', '2'),
    ('F3', '2', '2'),
    ('F3', '-1', '2'),
    ('F3', '2^(-1)', '2'),
    ('F5', '4^(1/2)', '2'),
    ('F5', '2^(1/2)', '!NoRoot'),
    ('F4', 'u', 'u'),
    ('F4', 'u^3', '1'),
    ('XYq', 'x*y^2', 'x*y^2'),
    ('XYq', 'y^2*y', '0'),
    ('XYq', 'x^2+y', 'y'),
    ('T3', 'T', 'T'),
    ('T3', 'T^2', '2'),
    ('T3', 'T^3', '2*T'),
    ('T3', 'T+1', 'T+1'),
    ('T3', 'T^(-1)', '2*T'),
    ('T9', 'T^5', '2*T'),
    ('T9', 'u*T+1', 'u*T+1'),
    ('U8', 'u^4', 'u^4'),
    ('U8', 'u^9', '0'),
    ('X1009', '(2*x)^2', '4*x^2'),
    ('X3p', 'x^(1/9)', '!LatticeError'),
    ('X3p', 'x^(-1)', '!LatticeError'),
    ('X3', '(1+x)^(1/3)', '!NoRoot'),
    ('X3', '(1+x)^(-1)', '!NotAUnit'),
    ('X1009', '(4*x^2)^(1/2)', '2*x'),
    ('X3', 'x^', '!SpecParseError'),
    ('X3', 'x+', '!SpecParseError'),
    ('X3', '(x', '!SpecParseError'),
    ('X3', 'x)', '!SpecParseError'),
    ('X3', 'z', '!SpecParseError'),
    ('X3', 'x^x', '!SpecParseError'),
    ('X3', 'x^(1/2/3)', '!SpecParseError'),
    ('X3', 'x $ 1', '!SpecParseError'),
    ('X3', '', '!SpecParseError'),
    ('X3', 'x^2^3', '!SpecParseError'),
    ('X3', 'x**2', '!SpecParseError'),
    ('X3', '1/2', '!SpecParseError'),
    ('X3', 'x^(1/2)', '!LatticeError'),
    ('X3', '*x', '!SpecParseError'),
    ('X3', 'x,y', '!SpecParseError'),
    ('X3', 'x^(x)', '!SpecParseError'),
    ('F3', 'u', '!SpecParseError'),
    ('T3', 'x^(1/2)', '!SpecParseError'),
    ('T3', 'T^(1/2)', '!LatticeError'),
    ('T2', 'T^(-1)', '!NotAUnit'),
    ('T3', 'T^(-1/2)', '!LatticeError'),
    ('X3', 'x^()', '!SpecParseError'),
    ('X3', '()', '!SpecParseError'),
    # uq inverses; NotAUnit where the representative shares a factor with g
    ('T3', '(T+1)^(-1)', 'T+2'),
    ('T3', '(2*T+1)^(-2)', '2*T'),
    ('T9', 'T^(-1)', 'T+2'),
    ('T9', '(u*T+1)^(-1)', '(2*u+1)*T+2*u'),
    ('T2', '(T+1)^(-1)', '2*T+1'),
    ('T2', '(2*T)^(-1)', '!NotAUnit'),
    ('T5', '(T^4+T+2)^(-1)', '2*T^3+2*T^2+2'),
    ('T5', 'T^(-3)', 'T^4+T^3+2*T^2+2*T'),
    ('T43', '(T^2+u)^(-1)', 'T'),
    ('T43', '(u*T^2+T+1)^(-1)', 'T^2+T+u'),
    ('T43', '(T+1)^(-1)', '(u+1)*T^2+(u+1)*T+u'),
    ('T33', 'T^(-1)', '!NotAUnit'),
    ('T33', '(T+1)^(-1)', '!NotAUnit'),
    ('T33', '(T^2+1)^(-1)', 'T^2+1'),
    ('T33', '(T+2)^(-2)', '!NotAUnit'),
    ('U8', '(u+1)^(-1)', 'u^7+u^6+u^5+u^4+u^3+u^2+u+1'),
    ('U8', '(u^3+u+1)^(-1)', 'u^7+u^4+u^2+u+1'),
    ('U8', 'u^(-1)', '!NotAUnit'),
    ('U8', '(u^2)^(-1)', '!NotAUnit'),
    ('T27', '(T^26+T+1)^(-1)',
     '2*T^26+T^25+2*T^24+T^23+2*T^22+T^21+2*T^20+T^19+2*T^18+T^17+2*T^16+'
     'T^15+2*T^14+T^13+2*T^12+T^11+2*T^10+T^9+2*T^8+T^7+2*T^6+T^5+2*T^4+T^3+'
     '2*T^2+1'),
    ('T27', 'T^(-1)', 'T^26+T'),
    ('T27', '(T^2+2)^(-1)',
     '2*T^26+2*T^24+2*T^22+2*T^20+2*T^18+2*T^16+2*T^14+2*T^12+2*T^10+2*T^8+'
     '2*T^6+2*T^4+2*T^2+2*T+2'),
]

# polynomial -> repr of (f, [e_0..e_{f-1}])
EISENSTEIN = [
    ('X^2-3', '(2, [-3, 0])'),
    ('X^3-2', '(3, [-2, 0, 0])'),
    ('X-3', '(1, [-3])'),
    ('X^2-2', '(2, [-2, 0])'),
    ('X^2+3', '(2, [3, 0])'),
    ('X^2 - 3', '(2, [-3, 0])'),
    ('X^4-3', '(4, [-3, 0, 0, 0])'),
    ('X^2+3*X-3', '(2, [-3, 3])'),
    ('1*X^2-3', '(2, [-3, 0])'),
    ('X^2+0*X-3', '(2, [-3, 0])'),
    ('X^2-6+3', '(2, [-3, 0])'),
    ('X^3-2*X-2', '(3, [-2, -2, 0])'),
    ('3+X^2', '(2, [3, 0])'),
    ('X^2+2', '(2, [2, 0])'),
    ('X-5', '(1, [-5])'),
    ('X^1-3', '(1, [-3])'),
    ('X^0', '(0, [])'),
    ('X^2-X^2+X-3', '!NotEisenstein'),
    ('X^2+1*X^1+1*X^0', '(2, [1, 1])'),
    ('2*X^2-3', '!NotEisenstein'),
    ('X^2-p', '!SpecParseError'),
    ('Y^2-3', '!SpecParseError'),
    ('X^2-3 junk', '!SpecParseError'),
    ('X^2-', '!SpecParseError'),
    ('', '!SpecParseError'),
    ('X^(1/2)-3', '!SpecParseError'),
    ('X^2-3)', '!SpecParseError'),
    ('X^2*', '!SpecParseError'),
    ('(X^2-3', '!SpecParseError'),
    ('X^2+x', '!SpecParseError'),
    ('0*X^2-3', '!NotEisenstein'),
    ('X^2-3^1', '(2, [-3, 0])'),
    ('X^2-3+0^0-1', '(2, [-3, 0])'),
    ('X^2-2^(1/2)', '!SpecParseError'),
    ('(X^2-3)^1', '(2, [-3, 0])'),
    ('X^2-3*X^0', '(2, [-3, 0])'),
]

# (base, ring, expression, precision) -> RW literal
EMBED = [
    ('b8', 'X6', 'x^(1/3)', None, 'RW[base=b0, N=8]{ W{x^(1/3);0;0;0;0} | W{0;0;0;0;0} }'),
    ('b8', 'X6', 'x^(13/3)', None, 'RW[base=b0, N=8]{ W{x^(13/3);0;0;0;0} | W{0;0;0;0;0} }'),
    ('b8', 'X6', 'pi*x^(2/3)', None, 'RW[base=b0, N=8]{ W{0;0;0;0;0} | W{x^(2/3);0;0;0;0} }'),
    ('b8', 'X6', 'x^(-5/3)', None, 'RW[base=b0, N=8]{ W{x^(-5/3);0;0;0;0} | W{0;0;0;0;0} }'),
    ('b6', 'X6', 'x^(4/3)', None, 'RW[base=b0, N=6]{ W{x^(4/3);0;0;0} | W{0;0;0;0} }'),
    ('b6', 'X6', 'pi*x^(-7/3)', None, 'RW[base=b0, N=6]{ W{0;0;0;0} | W{x^(-7/3);0;0;0} }'),
    ('b4', 'X10', 'x', None, 'RW[base=b0, N=4]{ W{x;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'pi', None, 'RW[base=b0, N=4]{ W{0;0;0} | W{1;0;0} }'),
    ('b4', 'X10', '1', None, 'RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', '2', None, 'RW[base=b0, N=4]{ W{2;1;0} | W{0;0;0} }'),
    ('b4', 'X10', '4', None, 'RW[base=b0, N=4]{ W{1;1;0} | W{0;0;0} }'),
    ('b4', 'X10', '1+pi', None, 'RW[base=b0, N=4]{ W{1;0;0} | W{1;0;0} }'),
    ('b4', 'X10', 'x+1', None,
     'RW[base=b0, N=4]{ W{x+1;2*x^2+2*x;2*x^8+2*x^7+2*x^5+2*x^4+2*x^2+2*x} | '
     'W{0;0;0} }'),
    ('b4', 'X10', 'x-1', None,
     'RW[base=b0, N=4]{ W{x+2;x^2+2*x;x^8+2*x^7+2*x^5+x^4+x^2+2*x} | W{0;0;'
     '0} }'),
    ('b4', 'X10', 'x^2-1', None,
     'RW[base=b0, N=4]{ W{x^2+2;x^4+2*x^2;x^16+2*x^14+2*x^10+x^8+x^4+2*x^2} | '
     'W{0;0;0} }'),
    ('b4', 'X10', '(x+1)^2', None,
     'RW[base=b0, N=4]{ W{x^2+2*x+1;x^5+x^4+x^2+x;'
     'x^17+x^16+2*x^15+x^14+x^13+x^11+x^10+2*x^9+x^8+x^7+x^5+x^4+2*x^3+x^2+x} | '
     'W{0;0;0} }'),
    ('b4', 'X10', '(1+pi)*x', None, 'RW[base=b0, N=4]{ W{x;0;0} | W{x;0;0} }'),
    ('b4', 'X10', '-x', None, 'RW[base=b0, N=4]{ W{2*x;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'pi^2', None, 'RW[base=b0, N=4]{ W{0;1;0} | W{0;0;0} }'),
    ('b4', 'X10', 'pi^3', None, 'RW[base=b0, N=4]{ W{0;0;0} | W{0;1;0} }'),
    ('b4', 'X10', '2^3', None, 'RW[base=b0, N=4]{ W{2;0;1} | W{0;0;0} }'),
    ('b4', 'X10', 'x*x', None, 'RW[base=b0, N=4]{ W{x^2;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'x^0', None, 'RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'pi^0', None, 'RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'x^(1/2)', None, 'RW[base=b0, N=4]{ W{x^(1/2);0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'x^(3/2)', None, 'RW[base=b0, N=4]{ W{x^(3/2);0;0} | W{0;0;0} }'),
    ('b4', 'X10', '3*x^(1)+x^(2)', None, 'RW[base=b0, N=4]{ W{x^2;x^3;0} | W{0;0;0} }'),
    ('b4', 'X10', '3*x^(-2)+x^(4)', None, 'RW[base=b0, N=4]{ W{x^4;x^(-6);0} | W{0;0;0} }'),
    ('b4', 'X10', 'x^(1/3)+x+1', None,
     'RW[base=b0, N=4]{ W{x+x^(1/3)+1;'
     '2*x^(7/3)+2*x^2+2*x^(5/3)+x^(4/3)+2*x+2*x^(2/3)+2*x^(1/3);'
     '2*x^(25/3)+2*x^8+2*x^(23/3)+x^(22/3)+2*x^7+2*x^(19/3)+2*x^6+2*x^(17/3)+x^(16/3)+x^5+x^(14/3)+2*x^4+x^(11/3)+2*x^(10/3)+2*x^3+x^(8/3)+x^(7/3)+x^2+2*x^(5/3)+2*x+2*x^(2/3)+2*x^(1/3)} | '
     'W{0;0;0} }'),
    ('b4', 'X10', '-(x)', None, 'RW[base=b0, N=4]{ W{2*x;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'x^(1/2)+pi*x+1', None,
     'RW[base=b0, N=4]{ W{x^(1/2)+1;2*x+2*x^(1/2);'
     '2*x^4+2*x^(7/2)+2*x^(5/2)+2*x^2+2*x+2*x^(1/2)} | W{x;0;0} }'),
    ('b4', 'X10', 'pi*(x+1)', None,
     'RW[base=b0, N=4]{ W{0;0;0} | W{x+1;2*x^2+2*x;'
     '2*x^8+2*x^7+2*x^5+2*x^4+2*x^2+2*x} }'),
    ('b4', 'X10', 'x', 2, 'RW[base=b0, N=2]{ W{x;0;0} | W{0;0;0} }'),
    ('b4', 'X10', '1+pi', 3, 'RW[base=b0, N=3]{ W{1;0;0} | W{1;0;0} }'),
    ('b4', 'X10', 'x^(1/3)', 1, 'RW[base=b0, N=1]{ W{x^(1/3);0;0} | W{0;0;0} }'),
    ('b4', 'F3', '1+pi', None, 'RW[base=b0, N=4]{ W{1;0;0} | W{1;0;0} }'),
    ('b4', 'F3', '2*pi-1', None, 'RW[base=b0, N=4]{ W{2;0;0} | W{2;1;0} }'),
    ('b4', 'F3', '4', None, 'RW[base=b0, N=4]{ W{1;1;0} | W{0;0;0} }'),
    ('c6', 'X2', 'x^(1/2)', None, 'RW[base=b0, N=6]{ W{x^(1/2);0;0} | W{0;0;0} | W{0;0;0} }'),
    ('c6', 'X2', 'pi^2+x', None, 'RW[base=b0, N=6]{ W{x;0;0} | W{0;0;0} | W{1;0;0} }'),
    ('c6', 'F2', 'pi', None, 'RW[base=b0, N=6]{ W{0;0;0} | W{1;0;0} | W{0;0;0} }'),
    ('c6', 'X2', 'x^(1/4)*pi', None,
     'RW[base=b0, N=6]{ W{0;0;0} | W{x^(1/4);0;0} | W{0;0;0} }'),
    ('c6', 'F3', 'pi', None, '!MismatchError'),
    ('b4', 'X10', 'x )', None, '!SpecParseError'),
    ('b4', 'X6', 'x^(1/2)', None, '!LatticeError'),
    ('b4', 'X10', '2^(1/2)', None, '!SpecParseError'),
    ('b4', 'X10', 'pi^(-1)', None, '!SpecParseError'),
    ('b4', 'X10', 'y', None, '!SpecParseError'),
    ('b4', 'X10', '', None, '!SpecParseError'),
    ('b4', 'X10', 'pi^', None, '!SpecParseError'),
    ('b4', 'X10', 'x+', None, '!SpecParseError'),
    ('b4', 'X10', '1/2', None, '!SpecParseError'),
    ('b4', 'X10', '(1+x)^(1/3)', None, '!SpecParseError'),
    ('b4', 'F3', 'x', None, '!SpecParseError'),
    ('b4', 'F3', '2^(-1)', None, '!SpecParseError'),
    ('b4', 'X10', 'x^(1/2048)', None, '!LatticeError'),
    ('b4', 'X10', 'pi^(1/2)', None, '!SpecParseError'),
    ('b4', 'X10', 'x^2^2', None, '!SpecParseError'),
]

# (base, ring, polynomial) -> RW literals of the coefficients, low degree first
POLY_X = [
    ('b8', 'X10', 'X^2-(p+x)',
     'RW[base=b0, N=8]{ W{2*x;2;0;0;0} | W{0;0;0;0;0} } ; '
     'RW[base=b0, N=8]{ W{0;0;0;0;0} | W{0;0;0;0;0} } ; RW[base=b0, N=8]{ W{1;'
     '0;0;0;0} | W{0;0;0;0;0} }'),
    ('b4', 'X10', 'X^2-(p+x)',
     'RW[base=b0, N=4]{ W{2*x;2;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;0;'
     '0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X-pi',
     'RW[base=b0, N=4]{ W{0;0;0} | W{2;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | '
     'W{0;0;0} }'),
    ('b4', 'X10', '2X+1',
     'RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{2;1;0} | '
     'W{0;0;0} }'),
    ('b4', 'X10', 'X-x^(1/2)',
     'RW[base=b0, N=4]{ W{2*x^(1/2);0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;'
     '0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X^2-X^2+X',
     'RW[base=b0, N=4]{ W{0;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | '
     'W{0;0;0} }'),
    ('b4', 'X10', 'X^2-(p*x^(1)+x^(2))',
     'RW[base=b0, N=4]{ W{2*x^2;2*x^3;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;'
     '0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X^2-(p*x^(-2)+x^(4))',
     'RW[base=b0, N=4]{ W{2*x^4;2*x^(-6);0} | W{0;0;0} } ; '
     'RW[base=b0, N=4]{ W{0;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | '
     'W{0;0;0} }'),
    ('b4', 'X10', 'X^3-x',
     'RW[base=b0, N=4]{ W{2*x;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;0;'
     '0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;0;0} | W{0;0;0} } ; '
     'RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', '(X+1)^2',
     'RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{2;1;0} | '
     'W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X(X+1)',
     'RW[base=b0, N=4]{ W{0;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | '
     'W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X^2+pi*X-1',
     'RW[base=b0, N=4]{ W{2;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;0;0} | '
     'W{1;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', '-X+1',
     'RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{2;0;0} | '
     'W{0;0;0} }'),
    ('b4', 'X10', 'X^(2)-1',
     'RW[base=b0, N=4]{ W{2;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;0;0} | '
     'W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'x X',
     'RW[base=b0, N=4]{ W{0;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{x;0;0} | '
     'W{0;0;0} }'),
    ('b4', 'X10', 'X^2 3',
     'RW[base=b0, N=4]{ W{0;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;0;0} | '
     'W{0;0;0} } ; RW[base=b0, N=4]{ W{0;1;0} | W{0;0;0} }'),
    ('b4', 'X10', 'p', 'RW[base=b0, N=4]{ W{0;1;0} | W{0;0;0} }'),
    ('b4', 'X10', '0', 'RW[base=b0, N=4]{ W{0;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X-x^1/2',
     'RW[base=b0, N=4]{ W{2*x^(1/2);0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;'
     '0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X-x^-1',
     'RW[base=b0, N=4]{ W{2*x^(-1);0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;'
     '0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X^((2))',
     'RW[base=b0, N=4]{ W{0;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;0;0} | '
     'W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', '2(X+pi)',
     'RW[base=b0, N=4]{ W{0;0;0} | W{2;1;0} } ; RW[base=b0, N=4]{ W{2;1;0} | '
     'W{0;0;0} }'),
    ('b4', 'X10', 'X-x^(1/2)*x',
     'RW[base=b0, N=4]{ W{2*x^(3/2);0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;'
     '0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X^0', 'RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('c6', 'X2', 'X^3-(p+x)',
     'RW[base=b0, N=6]{ W{x;x^2+1;x^4+x^2+1} | W{0;0;0} | W{0;0;0} } ; '
     'RW[base=b0, N=6]{ W{0;0;0} | W{0;0;0} | W{0;0;0} } ; '
     'RW[base=b0, N=6]{ W{0;0;0} | W{0;0;0} | W{0;0;0} } ; '
     'RW[base=b0, N=6]{ W{1;0;0} | W{0;0;0} | W{0;0;0} }'),
    ('c6', 'F2', 'X^2-pi*X+p',
     'RW[base=b0, N=6]{ W{0;1;0} | W{0;0;0} | W{0;0;0} } ; '
     'RW[base=b0, N=6]{ W{0;0;0} | W{1;1;1} | W{0;0;0} } ; '
     'RW[base=b0, N=6]{ W{1;0;0} | W{0;0;0} | W{0;0;0} }'),
    ('c6', 'F3', 'X', '!MismatchError'),
    ('b4', 'F3', 'X^2-p',
     'RW[base=b0, N=4]{ W{0;2;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;0;0} | '
     'W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'F3', 'X^2+X+1',
     'RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | '
     'W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X^(-1)+1', '!SpecParseError'),
    ('b4', 'X10', 'X+1)', '!SpecParseError'),
    ('b4', 'X10', 'X^(1/2)', '!SpecParseError'),
    ('b4', 'X10', 'Y', '!SpecParseError'),
    ('b4', 'X10', 'X^', '!SpecParseError'),
    ('b4', 'X10', '', '!SpecParseError'),
    ('b4', 'X10', 'X^2-*3', '!SpecParseError'),
    ('b4', 'X10', 'X^-1', '!SpecParseError'),
    ('b4', 'X10', 'pi^(1/2)', '!SpecParseError'),
    ('b4', 'X10', 'p^(-1)', '!SpecParseError'),
    ('b4', 'X6', 'X-x^(1/2)', '!LatticeError'),
    ('b4', 'X10', 'X^2/3', '!SpecParseError'),
    ('b4', 'X10', '(X', '!SpecParseError'),
    ('b4', 'X10', 'X+', '!SpecParseError'),
    # powers of constants, of X and of coefficient-ring names
    ('b4', 'X10', 'X-pi^0',
     'RW[base=b0, N=4]{ W{2;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | '
     'W{0;0;0} }'),
    ('b4', 'X10', 'X^2-pi^2',
     'RW[base=b0, N=4]{ W{0;2;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;0;0} | '
     'W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X^2-(p+x)^2',
     'RW[base=b0, N=4]{ W{2*x^2;x^3;2*x^9+2} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;'
     '0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X-(x+1)^(1/2)', '!SpecParseError'),
    ('b4', 'X10', 'X^0+X',
     'RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | '
     'W{0;0;0} }'),
    ('b4', 'X10', '(X-X)^2+X',
     'RW[base=b0, N=4]{ W{0;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{1;0;0} | '
     'W{0;0;0} }'),
    ('b4', 'X10', 'x*X^2-1',
     'RW[base=b0, N=4]{ W{2;0;0} | W{0;0;0} } ; RW[base=b0, N=4]{ W{0;0;0} | '
     'W{0;0;0} } ; RW[base=b0, N=4]{ W{x;0;0} | W{0;0;0} }'),
    ('b4', 'X10', 'X-pi^(1/2)', '!SpecParseError'),
    ('c6', 'X2', 'X^(1/2)', '!SpecParseError'),
    ('b4', 'F3', 'X-x', '!SpecParseError'),
]


@lru_cache(maxsize=None)
def ring(key):
    return br.make_ring(RINGS[key])


@lru_cache(maxsize=None)
def base(key):
    return cli.parse_base(BASES[key])


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the corpus records the error type
        return "!" + type(exc).__name__


def poly_text(coeffs):
    return " ; ".join(cli.format_rw(c) for c in coeffs)


@pytest.mark.parametrize("text,want", MAKE_RING)
def test_make_ring(text, want):
    assert outcome(lambda: br.canonical_descriptor(br.make_ring(text))) == want


@pytest.mark.parametrize("key,text,want", EVALUATE)
def test_evaluate(key, text, want):
    assert outcome(lambda: br.format_element(br.evaluate(ring(key), text))) == want


@pytest.mark.parametrize("text,want", EISENSTEIN)
def test_parse_eisenstein(text, want):
    assert outcome(lambda: repr(rw.parse_eisenstein(text))) == want


@pytest.mark.parametrize("bkey,key,text,prec,want", EMBED)
def test_embed_expr(bkey, key, text, prec, want):
    def embed():
        v = rw.embed_expr(base(bkey), ring(key), text)
        return v if prec is None else rw.rw_truncate(v, prec)
    got = outcome(lambda: cli.format_rw(embed()))
    assert got == want


@pytest.mark.parametrize("bkey,key,text,want", POLY_X)
def test_parse_poly_x(bkey, key, text, want):
    got = outcome(lambda: poly_text(cli.parse_poly_x(base(bkey), ring(key), text)))
    assert got == want


# ---------------------------------------------------------------------------
# spellings beyond the corpus, each equal to its explicit form

@pytest.mark.parametrize("key,short,explicit", [
    ("X3", "2x", "2*x"),
    ("XY3", "x^1/2", "x^(1/2)"),
    ("XY3", "x y", "x*y"),
    ("XY3", "2(x+1)y", "2*(x+1)*y"),
    ("X3", "x^-1", "x^(-1)"),
    ("X3", "x^-1/3", "x^(-1/3)"),
    ("X3", "x*-x", "x*(-x)"),
    ("X3", "(x)^(1/3)", "x^(1/3)"),
    ("X3", "x^((2))", "x^2"),
    ("T3", "2T^2", "2*T^2"),
    ("F9", "2u", "2*u"),
])
def test_evaluate_spellings(key, short, explicit):
    assert br.evaluate(ring(key), short) == br.evaluate(ring(key), explicit)


@pytest.mark.parametrize("short,explicit", [
    ("X*X-3", "X^2-3"),
    ("X X X-2", "X^3-2"),
    ("(X+3)*(X-3)+6", "X^2-3"),
    ("X^(2)-3", "X^2-3"),
    ("X^2--3", "X^2+3"),
])
def test_eisenstein_spellings(short, explicit):
    assert rw.parse_eisenstein(short) == rw.parse_eisenstein(explicit)


@pytest.mark.parametrize("short,explicit", [
    ("ff p=3 e=2 modulus=u*u+1", "ff p=3 e=2 modulus=u^2+1"),
    ("ff p=3 e=2 modulus=u u+2u+2", "ff p=3 e=2 modulus=u^2+2*u+2"),
    ("uq base=(ff p=3 e=1) var=T modulus=T T+1", "uq base=(ff p=3 e=1) var=T modulus=T^2+1"),
])
def test_descriptor_spellings(short, explicit):
    assert br.make_ring(short) == br.make_ring(explicit)


@pytest.mark.parametrize("short,explicit", [
    ("2x", "2*x"),
    ("x^1/3", "x^(1/3)"),
    ("(x)^(1/2)", "x^(1/2)"),
    ("pi x^(1/3)", "pi*x^(1/3)"),
    ("x^-1", "x^(-1)"),
])
def test_embed_spellings(short, explicit):
    b, r = base("b4"), ring("X10")
    assert poly_text([rw.embed_expr(b, r, short)]) == \
        poly_text([rw.embed_expr(b, r, explicit)])


@pytest.mark.parametrize("short,explicit", [
    ("X*X-3", "X^2-3"),
    ("X^2-(p+x)", "X*X-(3+x)"),
    ("-2*-X", "2X"),
    ("(x)^(1/2)X", "x^(1/2)*X"),
])
def test_poly_x_spellings(short, explicit):
    b, r = base("b4"), ring("X10")
    assert poly_text(cli.parse_poly_x(b, r, short)) == \
        poly_text(cli.parse_poly_x(b, r, explicit))


def test_poly_x_coefficients_do_not_depend_on_association():
    # 54 and -108 are 2*27 mod 81: zero to precision 6 in pi, not exactly zero
    b, r = base("b6"), ring("F3")
    texts = ["(X^2-3)^4", "(X^2-3)*(X^2-3)*(X^2-3)*(X^2-3)", "((X^2-3)*(X^2-3))^2",
             "(X^2-3)*((X^2-3)*((X^2-3)*(X^2-3)))", "X^8-12*X^6+54*X^4-108*X^2+81"]
    coeffs = [[cli.format_rw(c) for c in cli.parse_poly_x(b, r, t)] for t in texts]
    assert all(c == coeffs[0] for c in coeffs)
    exact = "RW[base=b0, N=6]{ W{0;0;0;2} | W{0;0;0;0} }"
    assert coeffs[0][2] == coeffs[0][4] == exact


@pytest.mark.parametrize("text", ["x^(1/0)", "x^0/0"])
def test_zero_denominator_is_a_parse_error(text):
    with pytest.raises(SpecParseError, match="denominator"):
        br.evaluate(ring("X3"), text)
