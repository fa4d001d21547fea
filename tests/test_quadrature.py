"""Tests for sphere and weighted-ball quadrature rules and closed-form moments."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaln, roots_genlaguerre, roots_legendre

import waveprop as wp
from waveprop import quadrature
from waveprop import serialization as ser
from waveprop.ascent import _family_ascent
from waveprop.quadrature import TENSOR_DIM_LIMIT, _dirichlet_rule


# Closed-form surface areas of S^{n-1} inside R^n.
SPHERE_AREAS = {
    1: 2.0,
    2: 2.0 * math.pi,
    3: 4.0 * math.pi,
    5: 8.0 * math.pi**2 / 3.0,
    7: 16.0 * math.pi**3 / 15.0,
    9: 32.0 * math.pi**4 / 105.0,
}


def test_sphere_area_closed_forms():
    for n, expected in SPHERE_AREAS.items():
        assert wp.sphere_area(n) == pytest.approx(expected, rel=1e-14)


def test_sphere_area_fits_a_float_wherever_its_value_does():
    # pi^(n/2) alone overflows past n = 1240 and Gamma(n/2) past n = 343; the area is tiny there
    for n in (100, 343, 344, 400, 1000):
        log_area = math.log(2.0) + n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0)
        assert wp.sphere_area(n) == pytest.approx(math.exp(log_area), rel=1e-12)
    assert wp.sphere_area(344) == pytest.approx(5.2e-224, rel=1e-2)
    assert wp.sphere_area(2000) == 0.0
    rule = wp.build_sphere_rule(400, 2, samples=10)
    assert rule.method == "montecarlo"
    assert rule.weights.sum() == pytest.approx(wp.sphere_area(400), rel=1e-14)


def test_sphere_rule_mass_and_even_moments():
    rule = wp.build_sphere_rule(3, 10)
    ones = np.ones(len(rule.weights))
    assert rule.integrate(ones) == pytest.approx(4.0 * math.pi, rel=1e-12)
    x, y, _ = rule.nodes.T
    # spherical averages: <x^2> = 1/3, <x^4> = 1/5, <x^2 y^2> = 1/15
    assert rule.integrate(x**2) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
    assert rule.integrate(x**4) == pytest.approx(4.0 * math.pi / 5.0, rel=1e-12)
    assert rule.integrate(x**2 * y**2) == pytest.approx(4.0 * math.pi / 15.0, rel=1e-12)


def test_sphere_rule_odd_moments_vanish():
    rule = wp.build_sphere_rule(3, 8)
    x, y, z = rule.nodes.T
    for vals in (x, x * y**2, x**3 * z, y * z):
        assert abs(rule.integrate(vals)) <= 1e-13


def test_sphere_rule_one_dimension_is_two_point():
    rule = wp.build_sphere_rule(1, 4)
    assert len(rule.weights) == 2
    assert rule.integrate(np.ones(2)) == pytest.approx(2.0)
    assert rule.integrate(rule.nodes[:, 0] ** 2) == pytest.approx(2.0)
    assert abs(rule.integrate(rule.nodes[:, 0])) == 0.0


def test_ball_rule_mass_matches_closed_form():
    # chebyshev weight on the disk integrates to 2*pi
    disk = wp.build_ball_rule(2, 8)
    assert disk.integrate(np.ones(len(disk.weights))) == pytest.approx(
        2.0 * math.pi, rel=1e-12
    )
    # flat weight on the 3-ball integrates to its volume
    ball = wp.build_ball_rule(3, 8, boundary_exponent=0.0)
    assert ball.integrate(np.ones(len(ball.weights))) == pytest.approx(
        4.0 * math.pi / 3.0, rel=1e-12
    )


def test_ball_rule_matches_closed_form_moments():
    for d in (2, 4):
        rule = wp.build_ball_rule(d, 12)
        for beta in ((1,) + (0,) * (d - 1), (1, 2) + (0,) * (d - 2), (2,) * d):
            vals = np.prod(rule.nodes ** (2 * np.asarray(beta)), axis=1)
            closed = wp.ball_moment(beta)
            assert rule.integrate(vals) == pytest.approx(closed, rel=1e-10)


def test_ball_moment_against_independent_quadrature():
    # moment of x^2 y^4 over the chebyshev-weighted disk, computed in polar
    # coordinates with an adaptive 1-D integrator
    angular, _ = integrate.quad(
        lambda th: math.cos(th) ** 2 * math.sin(th) ** 4, 0.0, 2.0 * math.pi
    )
    radial, _ = integrate.quad(
        lambda r: r**7 / math.sqrt(1.0 - r * r), 0.0, 1.0
    )
    assert wp.ball_moment((1, 2)) == pytest.approx(angular * radial, rel=1e-9)
    # frozen value of the same moment
    assert wp.ball_moment((1, 2)) == pytest.approx(0.179519580205131, rel=1e-12)


def test_ball_rule_odd_moments_vanish():
    rule = wp.build_ball_rule(2, 10)
    x, y = rule.nodes.T
    for vals in (x, x * y**2, x**3 * y):
        assert abs(rule.integrate(vals)) <= 1e-13


def test_dirichlet_double_factorial_form_agrees():
    # the factorial-only rewrite exists in even dimension d = 2m
    for alpha in ((0, 0), (1, 0), (1, 2), (2, 1, 1, 0), (3, 2, 0, 1)):
        gamma_form = wp.ball_moment(alpha)
        df_form = wp.dirichlet_moment_double_factorial(alpha)
        assert df_form == pytest.approx(gamma_form, rel=1e-12)


def test_gamma_duplication_identity():
    for k in range(1, 11):
        lhs, rhs = wp.gamma_duplication_check(k)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_gamma_duplication_rejects_nonpositive():
    with pytest.raises(ValueError):
        wp.gamma_duplication_check(0)


def test_montecarlo_ball_within_three_sigma():
    rule = wp.build_ball_rule(5, 10, method="montecarlo", samples=200_000, seed=0)
    vals = rule.nodes[:, 0] ** 2 * rule.nodes[:, 1] ** 2
    closed = wp.ball_moment((1, 1, 0, 0, 0))
    sigma = rule.weights.sum() * np.std(vals) / math.sqrt(len(rule.weights))
    assert sigma > 0.0
    assert abs(rule.integrate(vals) - closed) <= 3.0 * sigma


def test_montecarlo_sphere_within_three_sigma():
    rule = wp.build_sphere_rule(4, 8, method="montecarlo", samples=200_000, seed=0)
    vals = rule.nodes[:, 0] ** 2
    closed = math.pi**2 / 2.0  # area(S^3)/4
    sigma = rule.weights.sum() * np.std(vals) / math.sqrt(len(rule.weights))
    assert abs(rule.integrate(vals) - closed) <= 3.0 * sigma


def test_high_dimension_auto_falls_back_to_montecarlo():
    rule = wp.build_ball_rule(7, 6, samples=50_000, seed=1)
    assert rule.method == "montecarlo"
    assert rule.seed == 1


def test_stable_sum_compensates_cancellation():
    values = np.array([1.0, 1e16, 1.0, -1e16, 1.0])
    assert wp.stable_sum(values) == math.fsum(values)
    block = np.arange(12.0).reshape(3, 4)
    assert np.allclose(wp.stable_sum(block), block.sum(axis=0))


def test_stable_sum_of_no_rows_is_zero_of_the_trailing_shape():
    assert wp.stable_sum(np.zeros(0)) == 0.0
    empty = wp.stable_sum(np.zeros((0, 3)))
    assert empty.shape == (3,) and np.array_equal(empty, np.zeros(3))
    assert wp.stable_sum(np.zeros((0, 2, 2), dtype=complex)).shape == (2, 2)


def test_stable_sum_matches_fsum_on_long_inputs():
    rng = np.random.default_rng(3)
    big = rng.standard_normal(50_000) * 1e10
    cancelling = np.concatenate([big, rng.standard_normal(777), -rng.permutation(big)])
    for values in (np.zeros(0), rng.standard_normal(1), rng.standard_normal(1024),
                   rng.standard_normal(1025), rng.standard_normal(100_003), cancelling):
        exact = math.fsum(values.tolist())
        assert abs(wp.stable_sum(values) - exact) <= 1e-15 * max(abs(exact), 1.0)


def test_rule_csv_export_roundtrips(tmp_path):
    rule = wp.build_ball_rule(2, 6)
    path = tmp_path / "rule.csv"
    with open(path, "w", newline="") as fh:
        ser.rule_to_csv(rule, fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "w1,w2,weight"
    assert len(lines) == len(rule.weights) + 1
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == rule.nodes[0, 0]
    assert first[2] == rule.weights[0]


def test_rule_construction_validation():
    with pytest.raises(ValueError):
        wp.build_ball_rule(0, 8)
    with pytest.raises(ValueError):
        wp.build_ball_rule(2, -1)
    with pytest.raises(ValueError):
        wp.build_sphere_rule(2, 8, method="nope")
    # n = 9 is past both builders' Monte Carlo cut-over, where samples=0 divided by zero
    for build in (wp.build_ball_rule, wp.build_sphere_rule):
        for n in (2, 9):
            with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
                build(n, 4, samples=0)
    for p in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="boundary exponent must be finite and exceed -1"):
            wp.build_ball_rule(2, 4, boundary_exponent=p)
        with pytest.raises(ValueError, match="boundary exponent must be finite and exceed -1"):
            wp.ball_moment((1, 0), boundary_exponent=p)


def test_moments_refuse_negative_or_fractional_exponents():
    for alpha in ((-1, 2), (0.5, 1)):
        with pytest.raises(ValueError, match="non-negative integers"):
            wp.ball_moment(alpha)


@settings(max_examples=40, deadline=None)
@given(
    beta=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_tensor_rule_integrates_even_monomials_exactly(beta):
    rule = wp.build_ball_rule(2, 10)
    vals = rule.nodes[:, 0] ** (2 * beta[0]) * rule.nodes[:, 1] ** (2 * beta[1])
    closed = wp.ball_moment(beta)
    assert rule.integrate(vals) == pytest.approx(closed, rel=1e-10, abs=1e-13)


# ---------------------------------------------------------------------------
# one-dimensional Gauss rules: Golub-Welsch with a Newton polish

# (k, a, b) -> {index: (x, 1-x, weight)} of the k-node Beta(a, b) probability
# rule, to 40 digits (mpmath.gauss_quadrature at 60 digits); every node of
# k = 8, and for k = 61 and 121 both ends and the quartiles
GAUSS_JACOBI_40 = {
    (8, 0.5, 2.0): {
        0: ("8.054899781316824004523052951554755661029e-3", "9.91945100218683175995476947048445244339e-1", "2.663608629006455632602257732084570356324e-1"),
        1: ("7.094906284835560905951618812411933563418e-2", "9.290509371516443909404838118758806643658e-1", "2.414539877910751881933556407483875410114e-1"),
        2: ("1.887164242953620360015357040532915608344e-1", "8.112835757046379639984642959467084391656e-1", "1.970683058886075054546907825249124576425e-1"),
        3: ("3.463379400164355298247040900680545180206e-1", "6.536620599835644701752959099319454819794e-1", "1.42575423522873764836690456931950040449e-1"),
        4: ("5.237117716318439881839047379028262335251e-1", "4.762882283681560118160952620971737664749e-1", "8.874002215584756460580326929025662519421e-2"),
        5: ("6.982165560982657702993458245926477882373e-1", "3.017834439017342297006541754073522117627e-1", "4.482220722182682086062628872223124137024e-2"),
        6: ("8.475949224810777805382071595683175226994e-1", "1.524050775189222194617928404316824773006e-1", "1.614819434238306648717728817480355999823e-2"),
        7: ("9.527820592109788257246268791028246490245e-1", "4.721794078902117427537312089717535097554e-2", "2.830996176740526301430500399001498702008e-3"),
    },
    (61, 0.5, 2.0): {
        0: ("1.61772156592258360673224004096582729262e-4", "9.998382278434077416393267759959034172707e-1", "3.814867513413409870167328375211638679258e-2"),
        1: ("1.455321422408298077328578340648119924658e-3", "9.985446785775917019226714216593518800753e-1", "3.807466753470707943451176428116517656491e-2"),
        2: ("4.039072496182605138078684788287202103043e-3", "9.95960927503817394861921315211712797897e-1", "3.792698733352380942424559660740595581968e-2"),
        15: ("1.475798628326253448568238207118062182478e-1", "8.524201371673746551431761792881937817522e-1", "3.003082418626807751418152883135655811417e-2"),
        30: ("4.904854472440784458462144406195938511798e-1", "5.095145527559215541537855593804061488202e-1", "1.387810019310216221688771350083760565442e-2"),
        45: ("8.386820215240634054203500031977586537016e-1", "1.613179784759365945796499968022413462984e-1", "2.472660526957273427475043473736022902185e-3"),
        58: ("9.932293763430477122177791879116766092378e-1", "6.770623656952287782220812088323390762231e-3", "2.133427034424327468673766567197574122371e-5"),
        59: ("9.967764531638402936980065777658510448111e-1", "3.223546836159706301993422234148955188934e-3", "7.035861125762263541192306288754254272232e-6"),
        60: ("9.990376829150066959253284198749924813068e-1", "9.623170849933040746715801250075186931841e-4", "1.166679628818667016265503336091173769435e-6"),
    },
    (121, 0.5, 2.0): {
        0: ("4.161417528431437004767398495145218851137e-5", "9.999583858247156856299523260150485478115e-1", "1.935164120566211167389392646436708382007e-2"),
        1: ("3.7448601748752068225207346426876331566e-4", "9.996255139825124793177479265357312366843e-1", "1.934197922380011436763461323824423632636e-2"),
        2: ("1.040008078925287013464348080950145999939e-3", "9.989599919210747129865356519190498540001e-1", "1.932266651621188178757128241941185860692e-2"),
        30: ("1.470191137763589983851590851116095675875e-1", "8.529808862236410016148409148883904324125e-1", "1.524594454036756734811730033103933566795e-2"),
        60: ("4.951681572026573245569239020974008655923e-1", "5.048318427973426754430760979025991344077e-1", "6.941730005050676948923053098786953558342e-3"),
        90: ("8.460745286738207342969730374567681361611e-1", "1.539254713261792657030269625432318638389e-1", "1.168761096118677196496224946904835354635e-3"),
        118: ("9.982554266096072358771859158671759985775e-1", "1.744573390392764122814084132824001422484e-3", "1.415252700922431928390422734892920458081e-6"),
        119: ("9.991701268459942248574327856252215798145e-1", "8.298731540057751425672143747784201855196e-4", "4.661215708607482137553247496302596783052e-7"),
        120: ("9.997523989943629252833362310063095600911e-1", "2.476010056370747166637689936904399089175e-4", "7.722684174280715999308067674170381733721e-8"),
    },
    (8, 0.5, 1.0): {
        0: ("9.02737702564715135032571125009012104566e-3", "9.909726229743528486496742887499098789543e-1", "1.894506104550684962853967232082831051469e-1"),
        1: ("7.93005598114866532769237445412301454635e-2", "9.206994401885133467230762554587698545365e-1", "1.826034150449235888667636679692199393836e-1"),
        2: ("2.097793686155100679293253806734347952972e-1", "7.902206313844899320706746193265652047028e-1", "1.691565193950025381893120790303599622116e-1"),
        3: ("3.817710533971155500827427559058291457155e-1", "6.182289466028844499172572440941708542845e-1", "1.495959888165767320815017305474785489705e-1"),
        4: ("5.706358201621721774414928584623759219067e-1", "4.293641798378278225585071415376240780933e-1", "1.246289712555338720524762821920164201449e-1"),
        5: ("7.493173785474033214084246027997486835959e-1", "2.506826214525966785915753972002513164041e-1", "9.515851168249278480992510760224622635526e-2"),
        6: ("8.922219742137978534717933249936908308625e-1", "1.077780257862021465282066750063091691375e-1", "6.225352393864789286284383699437769427499e-2"),
        7: ("9.789142101623510960067135568574713238549e-1", "2.108578983764890399328644314252867614506e-2", "2.715245941175409485178057245601810351227e-2"),
    },
    (61, 0.5, 1.0): {
        0: ("1.644131456735408173167593368196992780783e-4", "9.998355868543264591826832406631803007219e-1", "2.564333235445792146452470919122565971977e-2"),
        1: ("1.47906961098822479398373711417770888496e-3", "9.98520930389011775206016262885822291115e-1", "2.562646766979196385375144617816433533522e-2"),
        2: ("4.104924703748991996484555228132484573393e-3", "9.958950752962510080035154447718675154266e-1", "2.559274939174848198460025699184735920005e-2"),
        15: ("1.49860575746650869268603852898198309276e-1", "8.50139424253349130731396147101801690724e-1", "2.364583241103248115080839498361653586062e-2"),
        30: ("4.967860394473049909822619999305325604147e-1", "5.032139605526950090177380000694674395853e-1", "1.819210427243297977219759745198088632428e-2"),
        45: ("8.455172418705814186298433894872089375824e-1", "1.544827581294185813701566105127910624176e-1", "1.007930039142753991313414366717707377529e-2"),
        58: ("9.950179356402116385895267075765409111978e-1", "4.982064359788361410473292423459088802174e-3", "1.807203584188406226377336992557399109804e-3"),
        59: ("9.979708138789086675454507531061604949626e-1", "2.02918612109133245454924689383950503742e-3", "1.150732433894679893618357316078569793097e-3"),
        60: ("9.996146664905904997529892963838688039004e-1", "3.853335094095002470107036161311960995633e-4", "4.944768701851650609000892580547114782278e-4"),
    },
    (121, 0.5, 1.0): {
        0: ("4.195737871433320099365832672609759832367e-5", "9.999580426212856667990063416732739024017e-1", "1.295472193193431208028195019006698454735e-2"),
        1: ("3.775741593121169216861723447226118885722e-4", "9.996224258406878830783138276552773881114e-1", "1.295254773799471753922071867863472508517e-2"),
        2: ("1.048582423397341026671312267138416596656e-3", "9.989514175766026589733286877328615834033e-1", "1.294819971501099429489424010242201588046e-2"),
        30: ("1.481677543213307185743270894900681759817e-1", "8.518322456786692814256729105099318240183e-1", "1.195677574926361610579774938424090260775e-2"),
        60: ("4.983785064824579135178525872850581273015e-1", "5.016214935175420864821474127149418726985e-1", "9.17538630164364463239059927690667931315e-3"),
        90: ("8.495193949109919710021897530844284869188e-1", "1.504806050890080289978102469155715130812e-1", "5.025418805080295617509330582253517826145e-3"),
        118: ("9.987270890801219946121667297906121553885e-1", "1.272910919878005387833270209387844611548e-3", "4.6145213913046764901777053814353129477e-4"),
        119: ("9.994819265553095520910665209554256223739e-1", "5.18073444690447908933479044574377626121e-4", "2.937205432109215365966553154836724778644e-4"),
        120: ("9.999016603134534599479846512825167049767e-1", "9.833968654654005201534871748329502331162e-5", "1.261877645042432537902827897666997768168e-4"),
    },
    (8, 0.5, 2.5): {
        0: ("7.643231310535782626586415231370179904755e-3", "9.923567686894642173734135847686298200952e-1", "2.926945980270108300938995675836319081868e-1"),
        1: ("6.740273768264680728958491199643477959422e-2", "9.325972623173531927104150880035652204058e-1", "2.585555412466881187556063932866585995979e-1"),
        2: ("1.797139527758744839572142724467273733165e-1", "8.202860472241255160427857275532726266835e-1", "2.00121121349956706557682078752528083166e-1"),
        3: ("3.310306905693228918130188554538603542232e-1", "6.689693094306771081869811445461396457768e-1", "1.332121627772607667140098857094811282455e-1"),
        4: ("5.031023811922370422009229159716799770772e-1", "4.968976188077629577990770840283200229228e-1", "7.36135189029902138996370203057219288209e-2"),
        5: ("6.751757979982902823602325718499790674917e-1", "3.248242020017097176397674281500209325083e-1", "3.156041774526321152451102982839665404481e-2"),
        6: ("8.265000642625596355389352305081860308123e-1", "1.734999357374403644610647694918139691877e-1", "9.078334579178376552371580796581420586078e-3"),
        7: ("9.388429089144154271546812971299975316978e-1", "6.115709108558457284531870287000246830223e-2", "1.164305371651775902282443737000277352088e-3"),
    },
    (61, 0.5, 2.5): {
        0: ("1.604832256150290607342273543419919535164e-4", "9.998395167743849709392657726456580080465e-1", "4.299974578563908715753412396856524863172e-2"),
        1: ("1.443731060272957920678805056041253169714e-3", "9.985562689397270420793211949439587468303e-1", "4.288944382744205646787243091660874506933e-2"),
        2: ("4.006932650815703692089661187003838480535e-3", "9.959930673491842963079103388129961615195e-1", "4.266954710729193658202433853855076650023e-2"),
        15: ("1.464656600271241063082793715130276622228e-1", "8.535343399728758936917206284869723377772e-1", "3.133661866415264557669795184132282048978e-2"),
        30: ("4.873970385525218055608182244473118817727e-1", "5.126029614474781944391817755526881182273e-1", "1.130301660708549076195100155211128472443e-2"),
        45: ("8.353010743992751773231492374380502489936e-1", "1.646989256007248226768507625619497510064e-1", "1.167159063194641460557365932821142068425e-3"),
        58: ("9.922867560214936655456064012043284251094e-1", "7.713243978506334454393598795671574890594e-3", "2.580464820519153974219843302937259535768e-6"),
        59: ("9.961235090163490764479585715577167873078e-1", "3.876490983650923552041428442283212692249e-3", "6.571747028472477261728245978719084045965e-7"),
        60: ("9.986873850688599955775637158474433096613e-1", "1.312614931140004422436284152556690338689e-3", "7.77776897336048595953115228021662006297e-8"),
    },
    (121, 0.5, 2.5): {
        0: ("4.14446705002782948579828830054420764777e-5", "9.999585553294997217051420171169945579235e-1", "2.185647887481342587356699452700985527888e-2"),
        1: ("3.729608131691631935185885160686495920818e-4", "9.996270391868308368064814114839313504079e-1", "2.184198924701769568923571014462154092579e-2"),
        2: ("1.035773281765346358457332565083082402805e-3", "9.989642267182346536415426674349169175972e-1", "2.181303400452970123714618305264085344416e-2"),
        30: ("1.464515291315828749678912397618887958958e-1", "8.535484708684171250321087602381112041042e-1", "1.592479407739416263652502487645820912464e-2"),
        60: ("4.935790687699883109152582275818443891325e-1", "5.064209312300116890847417724181556108675e-1", "5.605916193668582933350525692007006606492e-3"),
        90: ("8.443612789078399426912385948466059351236e-1", "1.556387210921600573087614051533940648764e-1", "5.295306173167343641128040542100017386247e-4"),
        118: ("9.980041979965825245757020189574437191751e-1", "1.995802003417475424297981042556280824856e-3", "8.779778815620584797928769513796283821049e-8"),
        119: ("9.989979131052742447019269175405769569935e-1", "1.002086894725755298073082459423043006513e-3", "2.231715934461547280580224846490873993309e-8"),
        120: ("9.996608997539776271978415521450704840234e-1", "3.391002460223728021584478549295159766294e-4", "2.637918910878806851092096058054640245596e-9"),
    },
    (121, 0.5, 0.5): {
        0: ("4.213111209155071329791061889217875697482e-5", "9.99957868887908449286702089381107821243e-1", "8.264462809917355371900826446280991735537e-3"),
        1: ("3.79137409285954935108764365024238826893e-4", "9.996208625907140450648912356349757611731e-1", "8.264462809917355371900826446280991735537e-3"),
        2: ("1.052922838044584755718098462057457201083e-3", "9.989470771619554152442819015379425427989e-1", "8.264462809917355371900826446280991735537e-3"),
        30: ("1.487489187201573364626700410104105679577e-1", "8.512510812798426635373299589895894320423e-1", "8.264462809917355371900826446280991735537e-3"),
        60: ("5.0e-1", "5.0e-1", "8.264462809917355371900826446280991735537e-3"),
        90: ("8.512510812798426635373299589895894320423e-1", "1.487489187201573364626700410104105679577e-1", "8.264462809917355371900826446280991735537e-3"),
        118: ("9.989470771619554152442819015379425427989e-1", "1.052922838044584755718098462057457201083e-3", "8.264462809917355371900826446280991735537e-3"),
        119: ("9.996208625907140450648912356349757611731e-1", "3.79137409285954935108764365024238826893e-4", "8.264462809917355371900826446280991735537e-3"),
        120: ("9.99957868887908449286702089381107821243e-1", "4.213111209155071329791061889217875697482e-5", "8.264462809917355371900826446280991735537e-3"),
    },
}


@pytest.mark.parametrize("k, a, b", list(GAUSS_JACOBI_40))
def test_gauss_jacobi_matches_the_40_digit_table(k, a, b):
    x, one_minus_x, weights = quadrature._gauss_jacobi_unit(k, a, b)
    assert len(x) == k and math.fsum(weights.tolist()) == pytest.approx(1.0, rel=1e-15)
    for i, row in GAUSS_JACOBI_40[(k, a, b)].items():
        for got, want in zip((x[i], one_minus_x[i], weights[i]), map(float, row)):
            assert abs(got - want) <= 2e-15 * want, (i, got, want)


@pytest.mark.parametrize("k, a, b", list(GAUSS_JACOBI_40))
def test_gauss_jacobi_integrates_beta_moments(k, a, b):
    # E[x^j] = (a)_j / (a+b)_j and E[(1-x)^j] = (b)_j / (a+b)_j for j < 2k; the summands
    # are positive, so each sum is as accurate as x^j, about j roundings
    x, one_minus_x, weights = quadrature._gauss_jacobi_unit(k, a, b)
    eps = np.finfo(float).eps
    for node, p, q in ((x, a, b), (one_minus_x, b, a)):
        exact = Fraction(1)
        for j in range(2 * k):
            got = math.fsum((weights * node**j).tolist())
            assert abs(got - float(exact)) <= (4 + j) * eps * float(exact), (j, got, float(exact))
            exact *= (Fraction(p) + j) / (Fraction(p) + Fraction(q) + j)


@pytest.mark.parametrize("k", [96, 150])
def test_legendre_rule_matches_scipy(k):
    # scipy's weights carry up to ~3e-11 relative error at k = 150; its nodes are as close as ours
    x, one_minus_x, weights = quadrature._gauss_jacobi_unit(k, 1.0, 1.0)
    nodes, want = roots_legendre(k)
    assert np.max(np.abs((x - one_minus_x) - nodes)) <= 4.0 * np.finfo(float).eps
    assert np.max(np.abs(2.0 * weights - want) / want) <= 1e-10


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.5])
def test_laguerre_rule_matches_scipy_and_gamma_moments(alpha):
    u, weights = quadrature._gauss_laguerre(64, alpha)
    nodes, want = roots_genlaguerre(64, alpha)
    assert np.max(np.abs(u - nodes) / nodes) <= 1e-14
    assert np.max(np.abs(weights - want / want.sum()) / weights) <= 1e-12
    eps, exact = np.finfo(float).eps, Fraction(1)
    for j in range(40):  # E[u^j] = (alpha+1)_j under Gamma(alpha+1)
        got = math.fsum((weights * u**j).tolist())
        assert abs(got - float(exact)) <= (4 + j) * eps * float(exact), (j, got, float(exact))
        exact *= Fraction(alpha) + 1 + j


# ---------------------------------------------------------------------------
# Dirichlet rules on the simplex: pushforwards of sphere and ball under u = w^2


def _u_moment(nodes, weights, beta):
    return float(weights @ np.prod(nodes ** np.asarray(beta, dtype=float), axis=1))


def _selftest(alphas, level):
    """The simplex rule's self-test error, as _mirrored_rule reads it."""
    return quadrature._stick_rule(tuple(alphas), level, min(level, quadrature.PROBE_DEGREE))[1]


def _bounded(d, level):
    return [a for a in itertools.product(range(level + 1), repeat=d) if sum(a) <= level]


def _dirichlet_mass(alphas):
    """Gamma(alpha_1)...Gamma(alpha_K) / Gamma(sum alpha): the mass the probability rules divide out."""
    return math.exp(gammaln(alphas).sum() - gammaln(sum(alphas)))


def test_dirichlet_sphere_pushforward_moments_are_exact():
    level = 5
    for n in range(1, 8):
        u, weights = _dirichlet_rule([0.5] * n, level)
        mass = _dirichlet_mass([0.5] * n)
        for beta in _bounded(n, level):
            b = np.asarray(beta, dtype=float)
            closed = math.exp(gammaln(b + 0.5).sum() - gammaln(b.sum() + n / 2.0)) / mass
            got = _u_moment(u, weights, beta)
            assert got == pytest.approx(closed, rel=1e-12)


def test_dirichlet_ball_pushforward_moments_are_exact():
    level = 5
    for p in (-0.5, 0.0):
        for n in range(1, 7):
            u, weights = _dirichlet_rule([0.5] * n + [p + 1.0], level)
            u = u[:, :n]  # drop the slack coordinate 1 - |w|^2
            mass = _dirichlet_mass([0.5] * n + [p + 1.0])
            for beta in _bounded(n, level):
                closed = wp.ball_moment(beta, boundary_exponent=p) / mass
                assert _u_moment(u, weights, beta) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("alphas, level", [([1.5], 4), ([0.5] * 3, 6), ([0.3, 1.2, 2.0, 0.7], 7),
                                           ([0.5] * 7, 12), ([0.5] * 4 + [1.0], 14), ([0.5] * 8, 2)])
def test_every_dirichlet_and_stick_rule_is_a_probability_rule(alphas, level):
    sticks = quadrature._dirichlet_sticks(alphas, level)
    for _, _, wx in sticks:
        assert abs(math.fsum(wx.tolist()) - 1.0) <= 1e-15
    for c in quadrature._stick_moments(sticks, 2):
        assert abs(c[0, 0] - 1.0) <= 1e-15
    for c in quadrature._stick_rule(tuple(alphas), level, min(level, quadrature.PROBE_DEGREE))[0]:
        assert abs(c[0, 0] - 1.0) <= 1e-15
    _, weights = quadrature._dirichlet_tensor(sticks)
    assert abs(math.fsum(weights.tolist()) - 1.0) <= 1e-15
    _, weights = _dirichlet_rule(alphas, level)
    assert abs(math.fsum(weights.tolist()) - 1.0) <= 1e-15


def test_stick_selftest_stays_finite_with_hundreds_of_sticks():
    # 500 unnormalized stick masses would multiply to 0.0, so only probability rules keep this finite
    moments, error = quadrature._stick_rule((0.5,) * 501, 4, 4)
    assert len(moments) == 500
    assert math.isfinite(error) and error <= 1e-11


def test_dirichlet_tensor_rule_shape():
    for alphas, level in (([0.5] * 3, 6), ([0.5] * 5, 8), ([0.3, 1.2, 2.0, 0.7], 7), ([1.5], 4)):
        u, weights = _dirichlet_rule(alphas, level)
        assert len(weights) == (level // 2 + 1) ** (len(alphas) - 1)
        assert np.all(weights > 0.0)
        assert np.all(u >= 0.0)
        assert np.abs(u.sum(axis=1) - 1.0).max() <= 1e-15
        assert weights.sum() == pytest.approx(1.0, rel=1e-13)
        assert _selftest(alphas, level) <= 1e-12


def test_dirichlet_switches_to_montecarlo_above_tensor_limit():
    # only the public rules switch to Monte Carlo: the simplex rule stays tensor above TENSOR_DIM_LIMIT
    k = TENSOR_DIM_LIMIT + 2
    alphas = [0.5] * k
    u, weights = _dirichlet_rule(alphas, 2)
    assert len(weights) == 2 ** (k - 1)
    assert np.all(weights > 0.0)
    assert np.all(u >= 0.0)
    assert np.abs(u.sum(axis=1) - 1.0).max() <= 1e-15
    assert weights.sum() == pytest.approx(1.0, rel=1e-13)
    assert _selftest(alphas, 2) <= 1e-12


def test_dirichlet_rule_refusals():
    with pytest.raises(ValueError, match="level"):
        _dirichlet_rule([0.5, 0.5], -1)
    for bad in ([0.5, 0.0], [-0.5, 1.0]):
        with pytest.raises(ValueError, match="positive"):
            _dirichlet_rule(bad, 4)


# ---------------------------------------------------------------------------
# public tensor rules: the Dirichlet rule mirrored into every sign pattern


def _no_dirichlet_rule(*args):
    raise AssertionError("a refused rule must not build its simplex rule")


@pytest.mark.parametrize("build, count", [(lambda: wp.build_sphere_rule(7, 14), 8 ** 6 * 2 ** 7),
                                          (lambda: wp.build_ball_rule(6, 14), 8 ** 6 * 2 ** 6)])
def test_public_tensor_rules_refuse_above_the_node_limit(monkeypatch, build, count):
    monkeypatch.setattr(quadrature, "_dirichlet_rule", _no_dirichlet_rule)
    with pytest.raises(ValueError, match=f"{count} mirrored nodes, above the limit of {1 << 22}"):
        build()


def test_node_limit_counts_the_mirrored_nodes_exactly(monkeypatch):
    # build_ball_rule(2, 4): 3 nodes on each of 2 sticks, mirrored into 4 sign patterns
    monkeypatch.setattr(quadrature, "MIRRORED_NODE_LIMIT", 36)
    assert len(wp.build_ball_rule(2, 4).weights) == 36
    monkeypatch.setattr(quadrature, "MIRRORED_NODE_LIMIT", 35)
    with pytest.raises(ValueError, match="36 mirrored nodes, above the limit of 35"):
        wp.build_ball_rule(2, 4)


def _sorted_rows(nodes, weights):
    rows = np.column_stack([nodes, weights])
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("level", [5, 6])
@pytest.mark.parametrize("kind, n, p", [("sphere", 3, None), ("sphere", 4, None),
                                        ("ball", 3, -0.5), ("ball", 2, 0.0)])
def test_mirrored_rule_size_sign_symmetry_and_moments(kind, n, p, level):
    if kind == "sphere":
        rule, sticks = wp.build_sphere_rule(n, level), n - 1
        closed = lambda b: 2.0 * math.exp(gammaln(b + 0.5).sum() - gammaln(b.sum() + n / 2.0))
    else:
        rule, sticks = wp.build_ball_rule(n, level, boundary_exponent=p), n
        closed = lambda b: wp.ball_moment(tuple(b), boundary_exponent=p)
    assert rule.method == "tensor"
    assert len(rule.weights) == (level // 2 + 1) ** sticks * 2 ** n
    reference = _sorted_rows(rule.nodes, rule.weights)
    for i in range(n):
        flipped = rule.nodes.copy()
        flipped[:, i] *= -1.0
        assert np.array_equal(_sorted_rows(flipped, rule.weights), reference)
    probes = np.asarray(_bounded(n, level))
    got = quadrature._monomial_moments(rule.nodes, rule.weights, 2 * probes)
    exact = np.array([closed(b) for b in probes])
    assert np.max(np.abs(got - exact) / exact) <= 1e-12


def test_explicit_tensor_method_above_the_limit_stays_tensor():
    rule = wp.build_sphere_rule(TENSOR_DIM_LIMIT + 2, 2, method="tensor")
    assert rule.method == "tensor"
    assert len(rule.weights) == 2 ** (TENSOR_DIM_LIMIT + 1) * 2 ** (TENSOR_DIM_LIMIT + 2)
    assert rule.moment_error <= 1e-12


# ---------------------------------------------------------------------------
# the batched monomial-moment kernel


def _per_probe_moments(nodes, weights, exponents):
    """Reference: one exactly rounded weighted sum per exponent row."""
    return np.array([math.fsum((weights * np.prod(nodes ** e, axis=1)).tolist())
                     for e in exponents])


def _kernel_gap(nodes, weights, exponents):
    """Gap to the reference: relative where the integrand is positive (all-even
    rows, or nonnegative nodes), absolute elsewhere."""
    exponents = np.asarray(exponents)
    got = quadrature._monomial_moments(nodes, weights, exponents)
    ref = _per_probe_moments(nodes, weights, exponents)
    relative = np.all(exponents % 2 == 0, axis=1) | np.all(nodes >= 0.0)
    return float(np.max(np.abs(got - ref) / np.where(relative, np.abs(ref), 1.0)))


def _arrays(rule):
    return rule.nodes, rule.weights


# each entry builds (nodes, weights)
KERNEL_RULES = {
    "sphere3": lambda: _arrays(wp.build_sphere_rule(3, 8)),
    "ball4": lambda: _arrays(wp.build_ball_rule(4, 8)),
    "flat_ball2": lambda: _arrays(wp.build_ball_rule(2, 14, boundary_exponent=0)),
    "mc_ball7": lambda: _arrays(wp.build_ball_rule(7, 4, samples=20_000)),
    "simplex5": lambda: _dirichlet_rule([0.5] * 5, 8),
}


@pytest.mark.parametrize("name", sorted(KERNEL_RULES))
def test_monomial_moments_match_per_probe_reference(name):
    nodes, weights = KERNEL_RULES[name]()
    d = nodes.shape[1]
    degree = 3 if d > 4 else 6
    exponents = _bounded(d, degree)  # even and odd rows, |e| <= degree
    assert _kernel_gap(nodes, weights, exponents) <= 1e-14


def test_monomial_moments_ragged_chunks_single_probe_and_mass(monkeypatch):
    rule = wp.build_ball_rule(3, 8)
    exponents = _bounded(3, 5)
    # 7 nodes per chunk: the node count is not a multiple of the chunk
    monkeypatch.setattr(quadrature, "_MOMENT_CHUNK", 7)
    assert len(rule.weights) % 7 != 0
    assert _kernel_gap(rule.nodes, rule.weights, exponents) <= 1e-14
    monkeypatch.undo()
    assert _kernel_gap(rule.nodes, rule.weights, [(4, 0, 2), (1, 2, 3)]) <= 1e-14  # helper prefix rows
    mass = quadrature._monomial_moments(rule.nodes, rule.weights, [(0, 0, 0)])
    assert mass.shape == (1,)
    assert mass[0] == pytest.approx(math.fsum(rule.weights.tolist()), rel=1e-15)


def _reference_moment_error(nodes, weights, exponents, exact):
    got = _per_probe_moments(nodes, weights, exponents)
    return float(np.max(np.abs(got - exact) / exact))


def test_tensor_moment_errors_match_per_probe_reference():
    sphere = wp.build_sphere_rule(3, 8)
    probes = np.asarray(quadrature._even_probe_indices(3, 4))
    exact = [2.0 * math.exp(gammaln(b + 0.5).sum() - gammaln(b.sum() + 1.5)) for b in probes]
    ref = _reference_moment_error(sphere.nodes, sphere.weights, 2 * probes, exact)
    assert abs(sphere.moment_error - ref) <= 1e-14
    for d, p in ((4, -0.5), (2, 0.0)):
        ball = wp.build_ball_rule(d, 8 if d == 4 else 14, boundary_exponent=p)
        probes = np.asarray(quadrature._even_probe_indices(d, 4))
        exact = [wp.ball_moment(tuple(b), boundary_exponent=p) for b in probes]
        ref = _reference_moment_error(ball.nodes, ball.weights, 2 * probes, exact)
        assert abs(ball.moment_error - ref) <= 1e-14
    u, weights = _dirichlet_rule([0.5] * 5, 8)
    probes = np.asarray(quadrature._even_probe_indices(5, 4))
    exact = [math.exp(gammaln(b + 0.5).sum() - gammaln(b.sum() + 2.5)) / _dirichlet_mass([0.5] * 5) for b in probes]
    ref = _reference_moment_error(u, weights, probes, exact)
    assert abs(_selftest([0.5] * 5, 8) - ref) <= 1e-14


def test_even_probe_indices_match_the_filtered_product_order():
    def filtered(d, level):
        bounded = (a for a in itertools.product(range(level + 1), repeat=d) if sum(a) <= level)
        out = list(itertools.islice(bounded, quadrature.MOMENT_PROBE_CAP))
        corners = [tuple(level if i == j else 0 for i in range(d)) for j in range(d)]
        return out + [c for c in corners if c not in out]

    for d in range(1, 9):
        for level in range(15):
            assert quadrature._even_probe_indices(d, level) == filtered(d, level)


def test_stick_moments_integrate_the_tensor_rule_monomials():
    alphas = np.array([0.3, 1.2, 2.0, 0.7])
    sticks = quadrature._dirichlet_sticks(alphas, 7)
    u, weights = quadrature._dirichlet_tensor(sticks)
    moments = quadrature._stick_moments(sticks, 7)
    for b in _bounded(4, 7):
        tail = np.cumsum(b[::-1])[::-1]
        got = math.prod(c[b[j], tail[j + 1]] for j, c in enumerate(moments))
        assert got == pytest.approx(_u_moment(u, weights, b), rel=1e-13)


# ---------------------------------------------------------------------------
# per-process rule caches


def _clear_rule_caches():
    quadrature._gauss_jacobi_unit.cache_clear()
    quadrature._stick_rule.cache_clear()


def _commuting_family(n):
    rng = np.random.default_rng(n)
    return wp.CommutingFamily([np.diag(rng.uniform(-1.0, 1.0, 3)) for _ in range(n)])


def test_cold_and_warm_rule_caches_give_identical_outputs():
    fam = _commuting_family(3)
    a, b = wp.random_hermitian(4, seed=1, norm=1.0), wp.random_hermitian(4, seed=2, norm=1.0)
    h = wp.random_state(4, seed=3)

    def outputs():
        return [wp.cos_ascent(fam, 0.7), wp.sin_ascent(fam, 0.7), _family_ascent(fam, 0.7, sine=False)[1],
                *wp.fm_quadrature_crosscheck([a, b], h, 0.4, 2), *_dirichlet_rule([0.5, 1.0, 1.5], 9),
                _selftest([0.5, 1.0, 1.5], 9)]

    _clear_rule_caches()
    cold = outputs()
    warm = outputs()
    assert quadrature._stick_rule.cache_info().hits >= 3
    assert quadrature._gauss_jacobi_unit.cache_info().hits > 0
    for got, want in zip(warm, cold):
        assert np.array_equal(got, want)


def test_cached_rule_tables_are_read_only():
    assert quadrature._gauss_jacobi_unit.cache_info().maxsize == quadrature._GAUSS_JACOBI_CACHE
    assert quadrature._stick_rule.cache_info().maxsize == quadrature._STICK_RULE_CACHE
    moments, _ = quadrature._stick_rule((0.5, 0.5, 1.0), 6, 6)
    tables = [*quadrature._gauss_jacobi_unit(4, 0.5, 1.5), *moments]
    for stick in quadrature._dirichlet_sticks([0.5, 0.5, 1.0], 6):
        tables += stick
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0


def test_repeated_ball_rules_reuse_one_stick_table():
    _clear_rule_caches()
    first = wp.build_ball_rule(3, 8)
    assert quadrature._stick_rule.cache_info()[:2] == (0, 1)  # hits, misses
    for hits in (1, 2):
        again = wp.build_ball_rule(3, 8)
        assert quadrature._stick_rule.cache_info()[:2] == (hits, 1)
        assert np.array_equal(again.weights, first.weights)
        assert again.moment_error == first.moment_error


@pytest.mark.parametrize("n", [2, 3])
def test_cos_and_sin_at_one_time_share_one_stick_table(n):
    fam = _commuting_family(n)
    _clear_rule_caches()
    wp.cos_ascent(fam, 0.7)
    assert quadrature._stick_rule.cache_info()[:2] == (0, 1)  # hits, misses
    wp.sin_ascent(fam, 0.7)
    assert quadrature._stick_rule.cache_info()[:2] == (1, 1)
