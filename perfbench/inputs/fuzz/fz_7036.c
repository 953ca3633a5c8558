static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[4] = {1, -9};
int g1[3] = {-1, 7};
static int f0(int a, int b) {
    int r = a & (b - 8);
    if (r < 3)
        r = r | 4;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a & (b | 1);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    unsigned int v1 = ((((10u / 6u) % 9u) >> 0) + ((unsigned int)(g1[(unsigned int)(13) % 3u] < (15 - -5)) << 3));
    int v2 = (int)v1;
    {
        int w0 = 5;
        while (w0 > 0) {
            int a0[4] = {6, -1};
            w0 = w0 - 1;
        }
    }
    int *fzu = malloc(sizeof(int) * 1);
    fzu[0] = 3;
    free(fzu);
    mix((unsigned int)fzu[0]);
    int a1[5] = {-7, -6};
    int v3 = f0(a1[(unsigned int)((16 & g0[(unsigned int)(-8) % 4u])) % 5u], g0[(unsigned int)(-14) % 4u]);
    if (f0(((f1(-16, 15) < (12 >= 9)) ^ ((-10 & -8) / 4)), (a1[(unsigned int)(a1[(unsigned int)(-8) % 5u]) % 5u] >> 6)) <= (v2 >> 4)) {
        int a2[5] = {0, -3};
        int a3[2] = {0, -4};
        int v4 = a3[(unsigned int)(f1(((-14 == 0) >> 5), g1[(unsigned int)((5 % 4)) % 3u])) % 2u];
    } else {
        {
            int w1 = 5;
            while (w1 > 0) {
                v1 += 15u;
                mix(5u);
                int v5 = ((f1(12, (-5 + -7)) ^ (f1(13, 3) / 9)) + 3);
                w1 = w1 - 1;
            }
        }
    }
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
